// Machine-readable performance baselines + regression diffing.
//
// BENCH_*.json records have existed since PR 4, but nothing compared two
// runs, so the bench trajectory never gated anything. This module defines a
// small, stable baseline format — the numbers a perf gate should care about
// (makespan, tail latencies, critical-path attribution per lane) — plus a
// tolerance-band comparator. bench/bench_compare.cc wraps it as a CLI that
// exits nonzero on regression; CI's perf-gate job runs it against the
// committed snapshots in bench/baselines/ (regenerate intentionally with the
// `refresh-baselines` CMake target — see docs/observability.md).
//
// The simulator is deterministic, so identical code produces byte-identical
// baselines and the gate is noise-free: any drift is a real behaviour
// change. Tolerances exist to let intentional small changes ride while
// catching the "10% slower" class of silent regression.
#pragma once

#include <string>
#include <vector>

#include "obs/critpath.hpp"

namespace hh {

struct BatchReport;

/// One benchmark scenario's gated numbers. `attributed_s` is the
/// critical-path attribution per lane (cpu/gpu/h2d/d2h/idle) whose sum is
/// the makespan.
struct PerfBaseline {
  std::string bench;       // scenario id, e.g. "runtime_throughput.part1"
  double scale = 0;        // HH_SCALE the scenario ran at
  std::int64_t requests = 0;
  double makespan_s = 0;
  double p50_latency_s = 0;
  double p95_latency_s = 0;
  double p99_latency_s = 0;
  double attributed_s[kCritLaneCount] = {0, 0, 0, 0, 0};

  /// Single-line JSON, fixed field order, %.17g (round-trips exactly).
  std::string to_json() const;
};

/// Derive a baseline record from one drain's BatchReport.
PerfBaseline baseline_from_batch(const std::string& bench, double scale,
                                 const BatchReport& batch);

/// Render a baseline set as a JSON array (one record per line).
std::string render_perf_baselines(const std::vector<PerfBaseline>& baselines);

/// Parse a baseline file (util/json.hpp): a JSON array of records, or one
/// bare record. Only "bench" is required and unknown keys are skipped.
/// Throws ParseError on malformed input.
std::vector<PerfBaseline> parse_perf_baselines(const std::string& text);

// The gate's bands.
inline constexpr double kMakespanRelTol = 0.05;  // makespan may grow by 5%
inline constexpr double kLatencyRelTol = 0.08;   // p95/p99 (tails move more)
inline constexpr double kAttributionAbsTol = 0.10;  // per-lane share shift

/// Deterministic tolerance-band diff of two baseline sets, matched by bench
/// id. A regression is: a bench missing from `fresh`, an incomparable run
/// (scale or request count changed), makespan or tail latency above its
/// band, or a lane's attributed share of the makespan shifting by more than
/// the absolute tolerance (structure drift — e.g. time migrating from GPU
/// to the PCIe link). Faster-than-band results land in `improvements`.
struct PerfDiff {
  bool regressed = false;
  std::vector<std::string> findings;      // regressions, deterministic order
  std::vector<std::string> improvements;  // informational
  std::vector<std::string> notes;         // benches only in `fresh`, ...

  std::string to_string() const;
  std::string to_json() const;
};

PerfDiff compare_perf_baselines(const std::vector<PerfBaseline>& baseline,
                                const std::vector<PerfBaseline>& fresh);

}  // namespace hh
