// Checksummed shard state snapshots, for restart rehydration.
//
// A killed shard loses everything it learned: its plan cache and its tuner
// variant tables (including the epsilon-greedy PRNG position). The group
// periodically captures that state into a ShardSnapshot; on restart the
// snapshot is verified against its FNV-1a checksum and restored, so a
// restarted shard resumes with warm plans and — because the tuner PRNG state
// is part of the snapshot — continues the exact decision stream the killed
// shard would have produced. A snapshot that fails verification is rejected
// and the shard cold-starts instead: rehydrating corrupt state is strictly
// worse than rehydrating none.
//
// The checksum is chained field by field (fnv1a64 over each scalar's bytes
// in a fixed order), never over whole structs — struct padding bytes are
// indeterminate and would make verification flaky.
//
// What is NOT in a snapshot: operand residency (the device memory is gone —
// operands genuinely must be re-uploaded after a restart) and any in-flight
// request state (the group re-routes those at kill time; see
// sharded_service.hpp).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "runtime/plan_cache.hpp"
#include "tune/tuner.hpp"

namespace hh {

class SpgemmService;  // runtime/service.hpp

struct ShardSnapshot {
  std::size_t shard = 0;
  std::uint64_t round = 0;  // group round the snapshot was taken at
  std::vector<std::pair<PlanKey, CachedPlan>> plans;  // MRU-first
  TunerSnapshot tuner;
  std::uint64_t checksum = 0;  // over every field above, in declaration order

  /// Recompute the chained FNV-1a digest of the payload fields (everything
  /// except `checksum` itself).
  std::uint64_t compute_checksum() const;

  bool valid() const { return checksum == compute_checksum(); }
};

/// Capture `service`'s rehydratable state. The returned snapshot carries a
/// freshly computed checksum.
ShardSnapshot take_shard_snapshot(std::size_t shard, std::uint64_t round,
                                  const SpgemmService& service);

/// Restore `snap` into `service`, dropping any plan-cache or tuner entry
/// whose key is in `quarantined` — a plan quarantined after the snapshot was
/// taken must not be resurrected by rehydration. The snapshot must be
/// valid(); the caller decides what to do with an invalid one (cold start).
void restore_shard_snapshot(const ShardSnapshot& snap,
                            const std::vector<PlanKey>& quarantined,
                            SpgemmService& service);

}  // namespace hh
