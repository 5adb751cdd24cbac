// ShardedSpgemmService: a fault-tolerant group of SpgemmService shards.
//
// One SpgemmService recovers from *device*-level faults (kernel aborts,
// PCIe corruption) inside a request. This layer recovers from *service*-
// level faults — a whole shard dying mid-batch — without losing a single
// request or changing a single output bit:
//
//  - Routing. Requests are consistent-hashed by their plan-cache key
//    (signature(A), signature(B)) onto `shards` SpgemmService instances
//    (shard/ring.hpp): same-shaped products keep landing on the same shard
//    and keep hitting its plan cache, operand residency and tuner state.
//  - Health + circuit breaker. Each shard's request outcomes feed a monitor:
//    `kConsecutiveFailures` straight failures or `kDeadlineMisses` total
//    deadline misses trip the shard's breaker open (no traffic). After
//    `kOpenRounds` rounds it goes half-open and receives up to
//    `kHalfOpenProbes` probe requests; a clean probe round closes it, a
//    failed probe re-opens it.
//  - Failover. drain() executes in rounds: each routable shard receives up
//    to `round_quantum` requests, then the group consumes one kShard fault
//    decision per shard slot (in slot order) from its deterministic
//    injector, then the surviving shards drain. A shard killed this round
//    loses its in-flight submissions — the group re-queues them at the
//    front and the ring re-routes them to the dead shard's successor next
//    round (operands re-upload there naturally: residency died with the
//    shard). A request that cannot be placed this round (its shard is
//    saturated, open, or nothing is routable) is deferred, never dropped;
//    the only way the group refuses work is a typed AdmissionError at
//    submit() when `group_capacity` is reached.
//  - Restart + rehydration. A killed shard restarts after
//    `restart_after_rounds` rounds with a fresh service (derived per-shard
//    seeds, fault injector back at op 0) whose plan cache and tuner (PRNG
//    position included) are restored from the last checksummed snapshot
//    (shard/snapshot.hpp) — minus any key the group's quarantine ledger
//    still holds (TTL `kQuarantineTtlRounds` rounds), so a plan quarantined
//    after the snapshot cannot be resurrected. A snapshot failing checksum
//    verification is rejected: cold start. A restarted shard re-enters
//    through the half-open probe path.
//
// The kShard decision stream is one op per shard slot per round, slot order
// — op index = (round - 1) * shards + shard for the group's round counter
// starting at 1 — so Config::shard_faults.trigger_ops can kill an exact
// shard at an exact round. Everything in this layer is deterministic: same
// seeds and submission order replay to bit-identical outputs and
// byte-identical group reports, kills, restarts and failovers included.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "fault/fault.hpp"
#include "runtime/service.hpp"
#include "shard/report.hpp"
#include "shard/ring.hpp"
#include "shard/snapshot.hpp"

namespace hh {

class ShardedSpgemmService {
 public:
  // The group's fixed numbers (docs/robustness.md).
  static constexpr int kVirtualNodes = 16;  // ring points per shard
  // Health monitor: the breaker opens on this many straight failed
  // requests, or on this many deadline misses in one incarnation...
  static constexpr int kConsecutiveFailures = 3;
  static constexpr int kDeadlineMisses = 8;
  // ...stays open this many rounds, then routes up to this many probe
  // requests while half-open.
  static constexpr int kOpenRounds = 2;
  static constexpr std::size_t kHalfOpenProbes = 1;
  // Rounds a quarantined plan key stays in the ledger that filters
  // rehydration.
  static constexpr std::uint64_t kQuarantineTtlRounds = 4;

  struct Config {
    std::size_t shards = 4;
    std::uint64_t seed = 0x5a4dULL;  // ring placement, kill schedule, and
                                     // per-shard derived seeds
    std::size_t round_quantum = 8;   // requests per closed shard per round
    std::size_t group_capacity = 0;  // max pending at submit; 0 = unbounded
    FaultSpec shard_faults;          // kShard kill schedule (see header)
    int restart_after_rounds = 2;    // rounds a killed shard stays down
    // Template for every shard's SpgemmService. Per-shard seeds (fault
    // plan, tuner, retry jitter) are derived from Config::seed and the
    // shard index; the template's admission capacity and observability
    // hooks (trace, recorder, slo) are overridden — the group owns
    // admission and observability, feeding them on the group clock.
    SpgemmService::Config shard;
    // Group-level tracing: kShard instants on track 0, plus every request's
    // stage spans re-recorded on the group clock under track shard+1 (the
    // Perfetto exporter renders each shard as its own process, so
    // per-resource rows never falsely overlap across shards).
    TraceRecorder* trace = nullptr;
    // Group-level flight recorder / SLO monitor (obs/): fed once per
    // request as results map back to the group clock, with the executing
    // shard stamped on each record. Must outlive the group.
    WorkloadRecorder* recorder = nullptr;
    SloMonitor* slo = nullptr;
  };

  ShardedSpgemmService(const HeteroPlatform& platform, ThreadPool& pool,
                       Config config);

  /// Enqueue; returns the group request id. The matrices must outlive the
  /// next drain() and must not be modified before it returns. Throws
  /// InvalidArgumentError on a malformed request and AdmissionError when
  /// group_capacity is reached (counted as shed in the next
  /// GroupBatchReport).
  std::size_t submit(SpgemmRequest request);

  std::size_t pending() const { return queue_.size(); }

  /// Execute every pending request across the shard group (rounds of
  /// route → kill decisions → drain; see the header comment). Results come
  /// back in group submit order regardless of which shard — or how many
  /// shards, after failover — executed each request.
  GroupResult drain();

  /// Per-shard tuner state (index == shard; a dead shard
  /// contributes a default report). Deterministic JSON, replay-stable.
  GroupTuneReport tune_report() const;

  std::size_t shards() const { return shards_.size(); }
  const HashRing& ring() const { return ring_; }
  BreakerState breaker_state(std::size_t shard) const;
  bool alive(std::size_t shard) const { return shards_[shard].alive; }
  /// Rounds executed over the group's lifetime (quarantine TTL clock).
  std::uint64_t rounds() const { return round_; }

  /// The shard's live service; nullptr while the shard is dead.
  SpgemmService* shard_service(std::size_t shard) {
    return shards_[shard].service.get();
  }
  /// The last snapshot captured for the shard; nullptr before the first
  /// capture. Mutable so tests can tamper with it and exercise checksum
  /// rejection.
  ShardSnapshot* stored_snapshot(std::size_t shard) {
    return shards_[shard].has_snapshot ? &shards_[shard].snapshot : nullptr;
  }

  /// Group-lifetime instruments ("shard.*"): kills, restarts, failovers,
  /// deferrals, breaker transitions, rehydrations, shed, rounds.
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

 private:
  struct QuarantineEntry {
    PlanKey key;
    std::uint64_t expires_round = 0;  // inclusive: quarantined through this
  };

  struct Shard {
    std::unique_ptr<SpgemmService> service;
    BreakerState breaker = BreakerState::kClosed;
    bool alive = true;
    int consecutive_failures = 0;
    int deadline_misses = 0;
    int open_rounds_left = 0;
    int restart_countdown = 0;
    std::size_t quarantine_cursor = 0;  // read position in the service's log
    std::vector<QuarantineEntry> ledger;
    bool has_snapshot = false;
    ShardSnapshot snapshot;
    ShardReport report;  // reset per group drain
  };

  SpgemmService::Config shard_config(std::size_t shard) const;
  void restart_shard(std::size_t shard, double now_s);
  void kill_shard(std::size_t shard, double now_s);
  void open_breaker(Shard& sh, double now_s);
  void harvest_quarantines(std::size_t shard);
  std::uint64_t request_hash(const SpgemmRequest& request);
  const MatrixSignature& signature_of(const CsrMatrix* m);

  const HeteroPlatform& platform_;
  ThreadPool& pool_;
  Config config_;
  HashRing ring_;
  FaultInjector injector_;  // kShard decisions only
  std::vector<Shard> shards_;
  std::vector<SpgemmRequest> queue_;
  std::vector<std::uint64_t> queue_hashes_;  // ring position per queued item
  std::size_t next_id_ = 0;
  std::uint64_t round_ = 0;
  MetricsRegistry metrics_;
  std::int64_t shed_at_last_drain_ = 0;
  std::unordered_map<const CsrMatrix*, MatrixSignature> signatures_;
  // The operands whose full check passed since the last drain(), as in
  // SpgemmService (validate_spgemm_request).
  std::unordered_set<const CsrMatrix*> checked_;
};

}  // namespace hh
