// SpgemmService: a pipelined multi-query SpGEMM execution engine.
//
// The one-shot driver (run_hh_cpu) charges each request serially:
// transfer → compute → transfer. A service under sustained traffic does
// better: while request k computes, request k+1's operands are already
// crossing the H2D channel and its Phase I analysis can run in a CPU idle
// window; request k's result tuples cross D2H while k+1 occupies the GPU.
// drain() schedules each request's stages (core/hh_stages.hpp) on four
// independently-clocked resource timelines — CPU, GPU, H2D, D2H — with
// dependence-respecting insertion scheduling (runtime/timeline.hpp).
//
// Every request runs the same stage sequence inside a wave (runtime/wave.hpp):
// the wave uploads its distinct operands once, then each member request
// plans (Phase I), waits on its uploads, runs Phase II and the Phase III
// queue (shipping GPU tuples back, or degrading to the CPU), and merges.
// Phases II–IV are priced from one symbolic result per request, which
// requests of the same operand structure and threshold share, and a
// request that returns output gets its C from one numeric pass, which
// writes only values once its operand structure's C pattern is known.
//
// Each drain keeps one event log (trace/trace.hpp): Config::trace when it is
// attached and enabled, else a recorder of the drain's own. The timelines
// record every placement there exactly once; each request's stage spans and
// start/finish, the batch critical-path profile (obs/critpath.hpp) and both
// flame views are read back from that drain's span events.
//
// Steady-state accelerators, all output-preserving:
//  - partition-plan cache keyed by sparsity signatures (runtime/plan_cache)
//    — a hit skips threshold identification;
//  - symbolic-result cache keyed by operand structure (SymbolicCache), with
//    costs per B threshold and shared_accum_cap() and C's column pattern —
//    a hit skips the symbolic pass and writes only C's values into the
//    pattern the cache proved, so a repeated request costs its pricing and
//    a values-only numeric pass;
//  - operand residency keyed by content (fault/checksum.hpp) — an operand
//    already on the device is not re-shipped, whichever pointer submits it;
//  - workspace pooling (spgemm/workspace.hpp) — the numeric pass's SPA
//    accumulators are recycled instead of reallocated per request;
//  - heap retention (glibc) — the first service fixes malloc's mmap and trim
//    thresholds, so the next drain reuses the pages of outputs its caller
//    freed instead of faulting them in again (process-wide; see
//    keep_freed_heap in service.cc).
//
// Fault tolerance (docs/robustness.md): when Config::fault_plan injects
// faults (fault/fault.hpp), the service recovers per request —
//  - transient GPU kernel aborts and PCIe failures are retried with
//    exponential backoff and bounded attempts, under one retry rule;
//  - corrupted transfers are detected by checksum and re-sent; a damaged
//    upload never becomes resident;
//  - after RecoveryPolicy::kGpuFailuresBeforeDegrade GPU-side failures
//    (or transfer-retry exhaustion) the request degrades to the CPU-only
//    Gustavson path: the GPU's share is re-charged on the CPU timeline and
//    no PCIe traffic is scheduled;
//  - a request's own deadline (SpgemmRequest::deadline_s) cancels it when
//    it cannot finish in time, and a bounded admission queue sheds load at
//    submit().
// Numeric work always executes host-side with the same decomposition, so
// every completed request's output matrix — retried, degraded, or not — is
// bit-identical to what a cold, serial, fault-free run_hh_cpu call
// produces; only the simulated clock bookkeeping differs. Submitted
// matrices must stay alive and unmodified until drain() returns.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/hh_cpu.hpp"
#include "core/report.hpp"
#include "device/platform.hpp"
#include "fault/fault.hpp"
#include "obs/critpath.hpp"
#include "runtime/plan_cache.hpp"
#include "runtime/timeline.hpp"
#include "runtime/wave.hpp"
#include "sparse/csr.hpp"
#include "spgemm/spgemm.hpp"
#include "spgemm/workspace.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"
#include "tune/report.hpp"
#include "tune/tuner.hpp"
#include "util/prng.hpp"
#include "util/status.hpp"
#include "util/thread_pool.hpp"

namespace hh {

class WorkloadRecorder;  // obs/recorder.hpp
struct WorkloadRecord;   // obs/record.hpp
class SloMonitor;        // obs/slo.hpp

struct SpgemmRequest {
  const CsrMatrix* a = nullptr;
  const CsrMatrix* b = nullptr;  // nullptr = self product (B is A)
  // Threshold pins: 0 = planned through the plan cache; a pinned side
  // keeps its pin.
  offset_t threshold_a = 0;
  offset_t threshold_b = 0;
  std::string label;
  double deadline_s = 0;  // relative to submit; 0 = none
};

/// The request validation SpgemmService::submit performs, as a free function
/// so a fronting layer (the shard group, src/shard/) can reject malformed
/// requests before routing instead of discovering the throw mid-failover.
/// Each operand is checked in full (CsrMatrix::defect(/*sorted=*/false),
/// one O(nnz) walk) unless it is in `checked`, and goes into `checked` once
/// it passes. The caller keeps `checked` for one drain window: a submitted
/// matrix may not change before drain() returns, so a pointer that passed
/// since the last drain() still holds a well-formed matrix. Throws
/// InvalidArgumentError naming the operand and its defect; returns normally
/// on a well-formed request.
void validate_spgemm_request(const SpgemmRequest& request,
                             std::unordered_set<const CsrMatrix*>& checked);

/// Per-request fault/recovery accounting.
struct FaultRecoveryStats {
  int gpu_aborts = 0;   // injected GPU kernel aborts seen
  int h2d_faults = 0;   // injected H2D failures + corruptions
  int d2h_faults = 0;
  int corruptions = 0;  // subset of transfer faults caught by checksum
  int cpu_stalls = 0;   // injected CPU worker stalls
  int retries = 0;      // re-executed attempts (all resources)
  double backoff_s = 0;  // total exponential-backoff delay inserted

  int total_faults() const {
    return gpu_aborts + h2d_faults + d2h_faults + cpu_stalls;
  }
  void accumulate(const FaultRecoveryStats& o);
  std::string to_json() const;
  /// "gpu G, h2d H, d2h D (C corrupt), cpu stalls S; retries R, backoff B".
  std::string to_string() const;
};

/// Per-request accounting: the familiar RunReport (phase durations) plus the
/// pipeline view — queue wait, absolute stage spans, cache/residency flags —
/// and the fault/recovery outcome.
struct RequestReport {
  RunReport run;  // run.total_s is the request latency
  std::size_t request_id = 0;
  std::string label;
  Status status;  // ok, or kDeadlineExceeded when cancelled
  bool plan_cache_hit = false;
  bool inputs_resident = false;  // no bytes crossed H2D for this request
  bool degraded_to_cpu = false;  // GPU share re-planned onto the CPU
  bool deadline_missed = false;  // cancelled: no output produced
  FaultRecoveryStats faults;
  double deadline_s = 0;    // effective relative deadline (0 = none)
  double submit_s = 0;
  double start_s = 0;       // first stage begins
  double finish_s = 0;      // merge ends (or cancellation point)
  double queue_wait_s = 0;  // start_s - submit_s
  double latency_s = 0;     // finish_s - submit_s
  // This request's placements in the drain's event-log order; an operand's
  // upload attempts belong to the wave's first user of that operand.
  std::vector<StageSpan> spans;
  std::string flame;  // one-row text flame of this request's spans over the
                      // batch window (trace/flame.hpp)

  std::string to_string() const;
  std::string to_json() const;
};

/// The flight-recorder record (obs/record.hpp) of one served request:
/// identity, operand signatures `a`/`b` (b == a for a self product), arrival
/// on the recorder's accumulated clock `clock_s`, deadline, pinned and used
/// thresholds, outcome and stage totals. shard stays -1; a shard group
/// stamps its own.
WorkloadRecord workload_record(const SpgemmRequest& request,
                               const RequestReport& report,
                               const MatrixSignature& a,
                               const MatrixSignature& b, double clock_s);

/// Batch-level accounting across one drain().
struct BatchReport {
  std::size_t requests = 0;
  std::size_t completed = 0;        // status ok (with or without recovery)
  std::size_t degraded = 0;         // finished on the CPU-only path
  std::size_t deadline_missed = 0;  // cancelled
  std::size_t shed = 0;             // rejected at submit since last drain
  FaultRecoveryStats faults;        // aggregated over the batch
  double makespan_s = 0;             // last finish over all requests
  double sequential_estimate_s = 0;  // first-order back-to-back serial cost
                                     // of the same work (cold transfers,
                                     // cold identification)
  double p50_latency_s = 0;
  double p95_latency_s = 0;
  double p99_latency_s = 0;
  double cpu_busy_s = 0;  // occupied time per resource timeline
  double gpu_busy_s = 0;
  double h2d_busy_s = 0;
  double d2h_busy_s = 0;
  PlanCache::Stats plan_cache;
  // Wave accounting (runtime/wave.hpp). wave_enabled echoes
  // Config::wave.enabled: false means every wave held one request.
  bool wave_enabled = false;
  WaveStats wave;
  // Critical-path profile (obs/critpath.hpp), read from the drain's span
  // events. Every drain has one; critpath_enabled stays only because the
  // benchmark (perfbench/) still reads it.
  static constexpr bool critpath_enabled = true;
  CritPathReport critpath;
  bool backoff_jitter = false;  // RecoveryPolicy::decorrelated_jitter echo
  std::string flame;  // per-resource text flame view of the whole batch

  std::string to_string() const;
  std::string to_json() const;
};

struct BatchResult {
  std::vector<RunResult> results;  // submit order; results[i].report is the
                                   // same RunReport as requests[i].run. A
                                   // cancelled request's matrix is empty and
                                   // its report carries the deadline status.
  std::vector<RequestReport> requests;
  BatchReport batch;
};

/// How the service recovers from injected faults.
struct RecoveryPolicy {
  // The retry rule's fixed numbers (docs/robustness.md).
  static constexpr int kMaxAttempts = 4;  // per transfer, incl. the first try
  static constexpr double kBackoffBaseS = 1e-4;  // wait before the 2nd try...
  static constexpr double kBackoffMultiplier = 2;  // ...growing geometrically
  static constexpr int kGpuFailuresBeforeDegrade = 3;  // aborts per request
  static constexpr double kBackoffCapS = 5e-2;  // ceiling on a jittered wait
  // Decorrelated-jitter backoff (wait = base + u·(3·prev − base), capped,
  // with prev restarting at base for each operation): spreads retries of
  // correlated faults apart instead of synchronizing them on the geometric
  // ladder. Off by default, and then the jitter stream is never drawn. The
  // draws come from a dedicated deterministic PRNG (jitter_seed), so
  // same-seed replays stay bit-identical.
  bool decorrelated_jitter = false;
  std::uint64_t jitter_seed = 0x6a17ULL;
};

/// The service's symbolic results, after KKMEM (arXiv:1801.03065), which
/// reuses one symbolic result across products of the same structure. One
/// entry per operand-structure pair holds copies of the operands' patterns,
/// C's column pattern once a numeric pass has written a C for the pair, and
/// row_costs_at's costs per (B threshold, shared_accum_cap()); neither
/// value changes C's pattern, so every threshold shares it. A lookup proves
/// its pair by comparing the copies with the operands byte for byte, so
/// neither a digest collision nor an operand mutated in place can hand out
/// another structure's costs or pattern. Values take no part: a values-only
/// change hits. end_drain() drops every pair, and every pair's costs, that
/// no lookup used since the last call, so the cache holds at most one
/// drain's distinct set. Touched only by the draining thread: a pattern is
/// copied there, after the numeric pass that wrote its C, and the workers
/// of a later pass only read it; costs are immutable once built.
class SymbolicCache {
  struct Pair;

 public:
  struct Stats {
    std::int64_t hits = 0;    // lookups that skipped the symbolic pass
    std::int64_t misses = 0;  // lookups that ran it
    // Numeric passes that wrote only C's values into a held pattern.
    std::int64_t pattern_passes = 0;
    std::size_t entries = 0;  // operand-structure pairs held now
  };

  /// One request's symbolic result: row_costs_at's per-row costs at its B
  /// threshold, all Phases II–IV need besides the numeric pass, and the
  /// operand pair whose C pattern numeric_pass() reads or keeps. Valid
  /// until the next end_drain().
  struct Result {
    std::shared_ptr<const MaskedRowCosts> costs;
    Pair* pair = nullptr;
  };

  /// The symbolic result of A × B at B threshold t under the current
  /// shared_accum_cap(). The symbolic pass (row_costs_at) runs unless the
  /// pair holds both the costs at (t, cap) and C's pattern. While the pair
  /// has no pattern (its first use, or each earlier user was cancelled
  /// before its numeric pass) the pass also writes C's row sizes into
  /// `row_nnz` (a.rows slots) for numeric_pass(). a_key and b_key are the
  /// operands' structure_checksum (fault/checksum.hpp); they only pick the
  /// candidates. B is A for a self product (&b == &a).
  Result lookup(const CsrMatrix& a, const CsrMatrix& b, std::uint64_t a_key,
                std::uint64_t b_key, offset_t t, ThreadPool& pool,
                std::span<offset_t> row_nnz);

  /// C = A × B for a looked-up request, by numeric_in_halves
  /// (spgemm/spgemm.hpp) at the given sides. When the pair holds C's
  /// pattern, the known-pattern pass writes only C's values into it;
  /// otherwise the full pass writes C into the row sizes lookup() left in
  /// c.indptr (c is a.rows × b.cols with no entries), and the pair keeps
  /// C's pattern. Throws CheckError unless C's nnz is the costs'
  /// output_nnz.
  void numeric_pass(const Result& found, const CsrMatrix& a,
                    const CsrMatrix& b, std::span<const std::uint8_t> a_side,
                    std::span<const std::uint8_t> b_side, CsrMatrix& c,
                    ThreadPool& pool, WorkspacePool* workspace);

  /// Drops every pair, and every pair's costs, that no lookup used since
  /// the last call.
  void end_drain();

  Stats stats() const;

 private:
  struct Costs {
    offset_t t = 0;
    std::int64_t shared_cap = 0;
    std::shared_ptr<const MaskedRowCosts> costs;
    bool used = true;  // looked up since the last end_drain()
  };
  struct Pair {
    bool self = false;  // B is A; `b` stays empty
    CsrPattern a;
    CsrPattern b;
    std::unique_ptr<const CsrPattern> c;  // null until a C is written
    std::vector<Costs> costs;             // one per (t, shared_cap)
    bool used = true;
  };

  std::unordered_multimap<std::uint64_t, Pair> pairs_;
  Stats stats_;
};

class SpgemmService {
 public:
  // Plans the partition-plan cache holds before it evicts.
  static constexpr std::size_t kPlanCacheCapacity = 64;

  struct Config {
    bool keep_inputs_resident = true;  // uploaded operands stay on the device
    FaultPlan fault_plan;     // default: fault-free
    RecoveryPolicy recovery;
    std::size_t admission_capacity = 0;  // max pending; 0 = unbounded
    // Wave shape (runtime/wave.hpp, docs/runtime.md): drain() groups
    // requests sharing operands (by content) into waves, uploads each
    // distinct operand once per wave under a refcount, coalesces the
    // wave's H2D transfers into one block reservation, and batches
    // same-wave Phase II GPU launches. Disabled (the default), every wave
    // holds one request. Output bits are the same either way.
    WaveConfig wave;
    // Online autotuning (src/tune/, docs/tuning.md): measured-feedback
    // refinement of cached thresholds. Off by default — a disabled tuner
    // leaves every request, report and metric exactly as they were without
    // the subsystem. Tuning never changes output bits: it only re-selects
    // among threshold candidates, and every candidate computes the same
    // product.
    TuneConfig tune;
    // Optional structured tracing (trace/trace.hpp). The recorder must
    // outlive the service; it records nothing until enable()d. While
    // enabled it is each drain's event log: every timeline placement, fault,
    // retry, degradation, cancellation and critical-chain step lands in it
    // with request identity — export with trace/perfetto_export.hpp or
    // render with trace/flame.hpp. Reports are the same either way.
    TraceRecorder* trace = nullptr;
    // Optional workload flight recorder (obs/recorder.hpp): every drained
    // request appends one checksum-chained JSONL record (signature pair,
    // submit time, deadline, pinned thresholds, outcome, stage totals) —
    // the input of the trace-replay harness (obs/replay.hpp). Must outlive
    // the service. nullptr = off, with zero behavioural difference.
    WorkloadRecorder* recorder = nullptr;
    // Optional SLO monitor (obs/slo.hpp): every drained request is judged
    // against its objectives; `slo.*` instruments land wherever the monitor
    // is bound (bind it to this service's metrics() to keep one registry).
    // Must outlive the service. nullptr = off.
    SloMonitor* slo = nullptr;
  };

  SpgemmService(const HeteroPlatform& platform, ThreadPool& pool,
                Config config);
  SpgemmService(const HeteroPlatform& platform, ThreadPool& pool)
      : SpgemmService(platform, pool, Config{}) {}

  /// Enqueue; returns the request id (drain-order index). The matrices must
  /// outlive the next drain() and must not be modified before it returns.
  /// Throws InvalidArgumentError on a malformed request (null, degenerate
  /// or malformed operands, incompatible shapes, negative thresholds or
  /// deadline; each distinct operand is walked in full once per drain
  /// window) and AdmissionError when the bounded admission queue is full
  /// (the shed is counted in the next BatchReport).
  std::size_t submit(SpgemmRequest request);

  std::size_t pending() const { return queue_.size(); }

  /// Execute every pending request over the pipelined timelines. Requests
  /// are admitted FIFO; stages are placed by the insertion scheduler.
  BatchResult drain();

  PlanCache& plan_cache() { return plan_cache_; }
  const PlanCache& plan_cache() const { return plan_cache_; }
  const SymbolicCache& symbolic_cache() const { return symbolic_; }
  WorkspacePool& workspace_pool() { return workspace_; }
  const FaultInjector& fault_injector() const { return injector_; }
  const ThresholdTuner& tuner() const { return tuner_; }
  // Mutable tuner access for snapshot rehydration (src/shard/): a
  // restarted shard restores it before serving traffic.
  ThresholdTuner& tuner() { return tuner_; }

  /// Convergence snapshot of the online autotuner: entries in first-seen
  /// order, measured variants, promotion versions. Deterministic —
  /// same-seed replays render byte-identical JSON.
  TuneReport tune_report() const;

  /// Lifetime-cumulative instruments ("service.*", "plan_cache.*"): request
  /// outcome counters, fault/retry counters, a latency histogram, last-drain
  /// busy gauges. BatchReport stays the per-drain snapshot.
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

  /// Drop device residency and cached host-side signatures, checksums,
  /// structure digests and validations (e.g. after the caller mutated or
  /// freed previously-submitted matrices). Symbolic results stay: each
  /// lookup proves its entry against the operands themselves.
  void invalidate_inputs();

 private:
  class Drain;  // one drain() pass: stages, retry loop, batch epilogue

  const MatrixSignature& signature_of(const CsrMatrix* m);
  std::uint64_t content_key(const CsrMatrix* m);
  std::uint64_t structure_key(const CsrMatrix* m);

  const HeteroPlatform& platform_;
  ThreadPool& pool_;
  Config config_;
  PlanCache plan_cache_;
  SymbolicCache symbolic_;
  WorkspacePool workspace_;
  FaultInjector injector_;
  ThresholdTuner tuner_;
  Xoshiro256 jitter_rng_;  // consumed only when decorrelated_jitter is on
  std::vector<SpgemmRequest> queue_;
  std::size_t next_id_ = 0;
  MetricsRegistry metrics_;
  // BatchReport::shed is the per-drain delta of the lifetime-cumulative
  // "service.shed" counter; this is the counter's value at the last drain.
  std::int64_t shed_at_last_drain_ = 0;
  // Host-side memos, keyed by operand identity (see submit() contract):
  // the sparsity signature (plan-cache key), the content checksum
  // (residency key) and the structure digest (symbolic-cache candidate key)
  // of each submitted matrix. A stale structure digest costs at most a
  // miss: the symbolic cache checks each hit against the operand itself.
  std::unordered_map<const CsrMatrix*, MatrixSignature> signatures_;
  std::unordered_map<const CsrMatrix*, std::uint64_t> checksums_;
  std::unordered_map<const CsrMatrix*, std::uint64_t> structures_;
  // The operands whose full check passed since the last drain(): a later
  // submit() in the same window skips their walk.
  std::unordered_set<const CsrMatrix*> checked_;
  // Device residency keyed by operand content, so pointer-distinct but
  // bit-identical operands share one device copy and operands that merely
  // share a signature do not. The value counts the current drain's users
  // that have not finished; with keep_inputs_resident == false an entry is
  // evicted when it reaches zero.
  std::unordered_map<std::uint64_t, int> residency_;
};

}  // namespace hh
