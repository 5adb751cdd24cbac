// ReplayHarness: re-drive a recorded workload through a fresh service (or
// shard group) and judge the outcome.
//
// The flight-recorder log (obs/record.hpp) fixes *what* arrived and *when*:
// signature pairs, per-drain waves, inter-wave gaps on the recorder's
// accumulated clock, deadlines and pinned thresholds. The harness re-creates
// that workload against operands registered by signature and runs it twice —
// untuned (the production baseline) and tuned (autotuner on, seeded from
// ReplayOptions) — so promotion behaviour can be validated
// against production-shaped arrival patterns instead of synthetic uniform
// waves (ROADMAP: real-workload replay).
//
// Two arrival modes:
//  - open loop: waves are released at their recorded inter-arrival gaps
//    scaled by `speed` (2.0 = twice as fast); a wave whose turn has not come
//    waits, a late wave starts immediately. Latency counts from the
//    scheduled arrival, so queueing delay from compressed gaps is visible.
//  - closed loop: every record is submitted at once and drained
//    as-fast-as-possible — the throughput ceiling of the same work.
//
// Every replayed request is checked for bit-identity against the serial
// run_hh_cpu reference at the thresholds the replay actually chose, and the
// SLO monitor's accounting is reconciled against the BatchReport /
// GroupBatchReport totals. Everything is deterministic: same log + same
// options ⇒ byte-identical ReplayReport JSON and bit-identical outputs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "obs/record.hpp"
#include "obs/slo.hpp"
#include "runtime/service.hpp"
#include "shard/sharded_service.hpp"

namespace hh {

struct ReplayOptions {
  bool open_loop = true;  // false = closed loop (one as-fast-as-possible wave)
  double speed = 1.0;     // open loop: recorded gaps are divided by this
  std::uint64_t seed = 0x5eedULL;  // tuned pass's tuner seed (and the group
                                   // seed when shards > 0)
  std::size_t shards = 0;  // 0 = single SpgemmService; > 0 = sharded group
  double metrics_interval_s = 0;  // > 0: registry time series per pass
  std::vector<SloObjective> slo;  // objectives both passes are judged on
  // Base service config for both passes. The harness overrides: admission
  // (unbounded), recorder (off: a replay is not re-recorded), slo (the
  // harness's own monitor), and tune.enabled/tune.seed per pass. Each
  // replayed request carries its record's deadline.
  SpgemmService::Config service;
};

/// One pass (untuned or tuned) over the whole log.
struct ReplayRunReport {
  std::string name;  // "untuned" / "tuned"
  std::size_t requests = 0;
  std::size_t completed = 0;
  std::size_t degraded = 0;
  std::size_t deadline_missed = 0;
  std::size_t lost = 0;  // recorded requests that produced no replay result
  std::size_t outcome_divergence = 0;  // deadline outcome differs from log
  std::size_t identity_mismatches = 0;  // outputs != serial reference
  std::int64_t promotions = 0;          // tuner promotions during the pass
  double makespan_s = 0;  // absolute end of the last wave
  double p50_latency_s = 0;
  double p95_latency_s = 0;
  double p99_latency_s = 0;
  // Chained FNV-1a over every output matrix in log order: two passes with
  // equal digests produced bit-identical outputs.
  std::uint64_t output_digest = 0;
  bool slo_reconciled = true;  // monitor totals match the batch reports
  std::string slo_json;        // SloMonitor end state
  std::string timeline_json;   // metrics time series ("" when disabled)
  // "Why was this request slow": the critical-path explainer for the pass's
  // highest-latency request (obs/critpath.hpp RequestCostBreakdown::explain).
  // "" when the pass is sharded (group drains do not carry per-request
  // breakdowns).
  std::string slowest;

  std::string to_json() const;
};

struct ReplayReport {
  std::size_t records = 0;
  std::size_t waves = 0;
  bool open_loop = true;
  double speed = 1.0;
  std::size_t shards = 0;  // 0 = unsharded
  ReplayRunReport untuned;
  ReplayRunReport tuned;
  // Tuned-vs-untuned quotients (untuned / tuned; > 1 means tuning won).
  double makespan_speedup = 0;
  double p50_speedup = 0;
  double p95_speedup = 0;
  double p99_speedup = 0;

  std::string to_string() const;
  std::string to_json() const;
};

/// Same shape, pattern and values: the exact-equality check replays and
/// the service benches apply against the serial reference.
bool bit_identical(const CsrMatrix& x, const CsrMatrix& y);

class ReplayHarness {
 public:
  ReplayHarness(const HeteroPlatform& platform, ThreadPool& pool)
      : platform_(platform), pool_(pool) {}

  /// Make `m` available to replays under its signature. The matrix must
  /// outlive the harness. Registering two matrices with equal signatures
  /// keeps the first (they are interchangeable for planning purposes, but
  /// replay identity wants one canonical operand).
  void register_operand(const CsrMatrix* m);

  /// Replay the log through an untuned and a tuned pass. Throws
  /// InvalidArgumentError on an empty log, a record whose signatures were
  /// never registered, or invalid options (speed <= 0).
  ReplayReport replay(const WorkloadLog& log, const ReplayOptions& options);

 private:
  ReplayRunReport run_pass(const WorkloadLog& log,
                           const ReplayOptions& options, bool tuned);
  const CsrMatrix* resolve(const MatrixSignature& sig) const;
  const CsrMatrix& reference(const CsrMatrix* a, const CsrMatrix* b,
                             offset_t ta, offset_t tb);

  const HeteroPlatform& platform_;
  ThreadPool& pool_;
  std::unordered_map<MatrixSignature, const CsrMatrix*, MatrixSignatureHash>
      operands_;
  // Serial-reference cache: (a, b, threshold_a, threshold_b) → product.
  std::map<std::tuple<const void*, const void*, offset_t, offset_t>,
           CsrMatrix>
      references_;
};

}  // namespace hh
