// Critical-path profiler: per-request latency attribution and batch-level
// bottleneck analysis for the heterogeneous SpGEMM runtime.
//
// The paper's heterogeneous split (CPU head rows + GPU tail, §III) wins only
// when neither device — nor the PCIe link — becomes the serialization point;
// Liu & Vinter (arXiv:1504.05022) and Deveci et al. (arXiv:1801.03065) both
// find that imbalance and transfer overheads, not kernel speed, dominate
// heterogeneous SpGEMM. This module answers the two questions the batch
// aggregates cannot:
//
//  1. "Why was request R slow?" — RequestCostBreakdown decomposes each
//     request's latency into admission/queue wait, per-resource service
//     time, per-resource queueing delay behind *other* requests on the same
//     resource (granted start − dependence-allowed start, summed over the
//     request's placements), fault/retry overhead and backoff wait.
//
//  2. "What bound the batch?" — compute_critical_path() walks the
//     dependency chain backward from the placement that ends at the
//     makespan. Each step either (a) covers a placement, charging its span
//     to its resource; (b) hops to the same-resource predecessor when the
//     step started later than its dependences allowed (resource
//     contention); (c) hops to the placement ending where the step became
//     runnable (a dependence edge — preferring the same request); or
//     (d) crosses an idle gap (nothing ran anywhere: admission gaps,
//     retry backoff windows). The attributed segments tile [0, makespan)
//     exactly, so per-lane seconds sum to the makespan by construction
//     (the acceptance bound is 1e-9).
//
// Inputs are one drain's span events (trace/trace.hpp): the service's
// timelines record every positive-duration placement exactly once, with its
// stage name, resource, dependence-allowed and granted start, end and
// request id. A placement's wave is its request's wave (each request runs in
// exactly one), which the service passes in CritPathRequestInfo.
// Everything is deterministic: ties break on (earlier log order), and both
// renderings use fixed field order with %.9g numbers.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "runtime/resource.hpp"
#include "trace/trace.hpp"

namespace hh {

/// Sentinel wave index for steps outside any known request's wave (idle
/// gaps, placements of requests the caller passed no info for).
inline constexpr int kNoWave = -1;

/// Attribution lanes: the four resources plus "idle" (no placement anywhere
/// covered this part of the makespan — admission gap or retry backoff).
inline constexpr int kIdleLane = kResourceCount;
inline constexpr int kCritLaneCount = kResourceCount + 1;

/// "cpu" / "gpu" / "h2d" / "d2h" / "idle".
const char* crit_lane_name(int lane);

/// One step of the batch critical chain, chronological order.
struct CritPathStep {
  const char* stage = "idle";  // placement stage name; "idle" for gaps
  int lane = kIdleLane;        // Resource index, or kIdleLane
  std::size_t request_id = kNoRequest;
  int wave = kNoWave;
  double start_s = 0;          // covered segment of the makespan
  double end_s = 0;
  double attributed_s = 0;     // end_s - start_s (charged to `lane`)
  double queue_delay_s = 0;    // granted - requested for the placement; 0 for
                               // idle gaps
};

/// Per-request latency decomposition.
struct RequestCostBreakdown {
  std::size_t request_id = kNoRequest;
  std::string label;
  double queue_wait_s = 0;   // admission: first placement start - submit
  double latency_s = 0;      // finish - submit (RequestReport)
  double backoff_s = 0;      // retry backoff the request waited through
  double fault_s = 0;        // time burnt in failed/corrupt/aborted attempts
  double crit_path_s = 0;    // seconds of the batch critical chain charged
                             // to this request's placements
  double service_s[kResourceCount] = {0, 0, 0, 0};   // occupancy per lane
  double queueing_s[kResourceCount] = {0, 0, 0, 0};  // granted - requested,
                                                     // summed per lane
  /// Lane whose service+queueing dominates this request's latency;
  /// kResourceCount means admission queue wait dominated everything.
  int bottleneck_lane() const;
  /// One deterministic human-readable sentence: "why was this request slow".
  std::string explain() const;
};

/// Per-wave rollup of critical-chain attribution: one slice per wave that
/// the chain passes through.
struct CritPathWaveSlice {
  int wave_index = kNoWave;
  double attributed_s[kCritLaneCount] = {0, 0, 0, 0, 0};
};

/// Scalar rollup that survives shard/group accumulation: total makespan
/// charged per lane. Shard reports carry one of these per shard; the group
/// report sums them (shard "critical seconds", not wall time — shards drain
/// on independent clocks).
struct CritPathSummary {
  double makespan_s = 0;
  double attributed_s[kCritLaneCount] = {0, 0, 0, 0, 0};

  int bottleneck_lane() const;
  void accumulate(const CritPathSummary& other);
  std::string to_string() const;
  std::string to_json() const;
};

/// Full critical-path report for one drain.
struct CritPathReport {
  double makespan_s = 0;
  double attributed_s[kCritLaneCount] = {0, 0, 0, 0, 0};
  std::vector<CritPathStep> steps;              // chronological chain
  std::vector<RequestCostBreakdown> requests;   // ascending request_id order
                                                // (input order preserved)
  std::vector<CritPathWaveSlice> waves;         // ascending wave_index

  int bottleneck_lane() const;
  CritPathSummary summary() const;
  /// Breakdown for `id`, or nullptr when unknown.
  const RequestCostBreakdown* find_request(std::size_t id) const;

  std::string to_string() const;
  std::string to_json() const;
};

/// Per-request metadata the span events do not carry (service accounting).
struct CritPathRequestInfo {
  std::size_t request_id = kNoRequest;
  std::string label;
  int wave = kNoWave;  // the wave the request (and its uploads) ran in
  double queue_wait_s = 0;
  double latency_s = 0;
  double backoff_s = 0;
};

/// Extract the critical chain and per-request decomposition from one drain's
/// events: its kSpan events are the placements (instants are skipped).
/// `makespan_s` is the drain makespan (max placement end); placements may
/// arrive in any order. Deterministic.
CritPathReport compute_critical_path(
    std::span<const TraceEvent> events, double makespan_s,
    const std::vector<CritPathRequestInfo>& request_infos);

}  // namespace hh
