// WorkloadRecorder: the flight recorder the services append to.
//
// Attach one via SpgemmService::Config::recorder (or the sharded group's
// Config::recorder) and every served request lands here as one
// WorkloadRecord (obs/record.hpp), checksum-chained to its predecessor.
// The recorder keeps:
//
//  - its own accumulated clock: each drain() runs on a batch-local clock
//    starting at 0, so the recorder adds the makespans of all previous
//    drains to produce monotone submit timestamps across the service's
//    lifetime — the inter-arrival structure the replay harness re-creates;
//  - a drain counter stamped on every record: records sharing a drain index
//    form one replay wave;
//  - a bounded ring: beyond kMaxRecords the oldest record is
//    dropped and the chain seed moves up to the dropped record's checksum,
//    so the retained suffix still verifies end-to-end.
//
// The recorder is not thread-safe, matching the single-threaded drain()
// that feeds it. It must outlive any service configured with it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>

#include "fault/checksum.hpp"
#include "obs/record.hpp"

namespace hh {

class WorkloadRecorder {
 public:
  static constexpr std::size_t kMaxRecords = 4096;  // ring bound

  /// Append one record. The recorder stamps the drain index and the chained
  /// checksum; every other field is the caller's. Rotates the ring when the
  /// bound is exceeded.
  void append(WorkloadRecord record);

  /// Advance the accumulated clock past a finished drain and open the next
  /// wave. Services call this once per drain() with the batch makespan.
  void advance_clock(double makespan_s);

  /// Accumulated clock: sum of all finished drains' makespans. Records
  /// appended now carry submit_s = clock() + their drain-local submit.
  double clock() const { return clock_s_; }
  /// Index of the drain currently being recorded (0-based).
  std::uint64_t drain() const { return drain_; }

  std::size_t size() const { return records_.size(); }
  std::uint64_t total_appended() const { return total_appended_; }
  std::uint64_t rotations() const { return rotations_; }
  const std::deque<WorkloadRecord>& records() const { return records_; }

  /// Assemble the current ring contents as a verifiable WorkloadLog.
  WorkloadLog log() const;

  /// log().to_jsonl() written to `path`; false on I/O failure.
  bool write(const std::string& path) const;

 private:
  std::deque<WorkloadRecord> records_;
  std::uint64_t chain_seed_ = kFnv1aOffset;     // seed of the oldest record
  std::uint64_t last_checksum_ = kFnv1aOffset;  // checksum of the newest
  std::uint64_t total_appended_ = 0;
  std::uint64_t rotations_ = 0;
  std::uint64_t drain_ = 0;
  double clock_s_ = 0;
};

}  // namespace hh
