#include "obs/recorder.hpp"

#include <fstream>

namespace hh {

void WorkloadRecorder::append(WorkloadRecord record) {
  record.drain = drain_;
  record.checksum = record.payload_checksum(last_checksum_);
  last_checksum_ = record.checksum;
  records_.push_back(std::move(record));
  ++total_appended_;
  while (records_.size() > kMaxRecords) {
    // The second-oldest record was chained from the oldest one's checksum,
    // so that checksum becomes the new chain seed and the suffix still
    // verifies.
    chain_seed_ = records_.front().checksum;
    records_.pop_front();
    ++rotations_;
  }
}

void WorkloadRecorder::advance_clock(double makespan_s) {
  clock_s_ += makespan_s;
  ++drain_;
}

WorkloadLog WorkloadRecorder::log() const {
  WorkloadLog log;
  log.chain_seed = chain_seed_;
  log.total_appended = total_appended_;
  log.rotations = rotations_;
  log.records.assign(records_.begin(), records_.end());
  return log;
}

bool WorkloadRecorder::write(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << log().to_jsonl();
  return static_cast<bool>(out);
}

}  // namespace hh
