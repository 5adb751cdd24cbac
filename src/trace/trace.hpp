// Structured event/span recorder for the heterogeneous runtime.
//
// The paper's argument (Figs. 6–9) is a claim about *where time goes* — CPU
// vs. GPU vs. PCIe overlap — so the runtime needs per-stage, per-resource
// observability, not just end-of-batch aggregates. TraceRecorder captures
//   - every ResourceTimeline::reserve placement (span events, with both the
//     dependence-allowed earliest start the caller asked for and the start
//     the insertion scheduler actually granted — the difference is the
//     pipeline bubble);
//   - every fault and retry instant, carrying the fault injector's
//     site-local op index of the simulated device operation;
//   - every degradation, cancellation, wave and plan-cache decision the
//     service makes, with request identity.
//
// It is also the service's one record of what a drain scheduled: every
// SpgemmService drain records into one (Config::trace when attached and
// enabled, else a recorder of its own), and the critical-path profile, the
// flame views and each request's stage spans read that drain's span events.
// A recorder starts disabled and records nothing until enable().
//
// Consumers: trace/perfetto_export.hpp renders events as a Chrome
// trace-event / Perfetto JSON file (one track per Resource, per-request
// flow arrows); trace/flame.hpp renders a compact text flame view;
// obs/critpath.hpp attributes the makespan to lanes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "fault/fault.hpp"  // kNoDeviceOp: device-op identity in events
#include "runtime/resource.hpp"

namespace hh {

/// Sentinel for events not tied to one request (batch-level bookkeeping).
inline constexpr std::size_t kNoRequest = static_cast<std::size_t>(-1);

enum class TraceEventKind { kSpan = 0, kInstant = 1 };

enum class TraceCategory {
  kCompute = 0,    // CPU/GPU occupancy placed by the scheduler
  kTransfer = 1,   // PCIe channel occupancy
  kScheduler = 2,  // placement/cache decisions (plan-cache hit/miss, ...)
  kFault = 3,      // injected fault observed (abort/failure/corruption/stall)
  kRetry = 4,      // a re-attempt was scheduled (with backoff)
  kDegrade = 5,    // request fell back to the CPU-only path
  kCancel = 6,     // request cancelled past its deadline
  kTune = 7,       // autotuner decision (explore / promote)
  kShard = 8,      // shard group event (kill / restart / rehydrate /
                   // failover / breaker transition)
  kSlo = 9,        // SLO burn-rate threshold crossing (obs/slo.hpp)
  kWave = 10,      // wave executor event (begin / end / coalesced upload /
                   // refcount eviction — runtime/wave.hpp)
  kCritPath = 11,  // batch critical-chain step (obs/critpath.hpp); the
                   // Perfetto exporter links these with flow arrows
};

const char* to_string(TraceCategory c);

/// True for the span of an attempt an injected fault burnt: a failed or
/// corrupted transfer ("h2d-input-fault", "d2h-tuples-corrupt") or an
/// aborted kernel ("phase2-gpu-abort"), i.e. a name ending in "-fault",
/// "-corrupt" or "-abort". Critpath charges these spans to a request's
/// fault_s, and the flame views draw them as '!'.
bool is_fault_stage(const char* stage);

struct TraceEvent {
  TraceEventKind kind = TraceEventKind::kInstant;
  TraceCategory category = TraceCategory::kScheduler;
  const char* name = "";  // static string
  bool has_resource = false;
  Resource resource = Resource::kCpu;
  std::size_t request_id = kNoRequest;
  double start_s = 0;
  double end_s = 0;      // instants: end_s == start_s
  double requested_s = 0;  // spans: earliest start the caller asked for
  std::uint64_t device_op = kNoDeviceOp;  // instants: injector site-local
                                          // op index of a fault or retry
  // Track group: 0 = the recording service itself; a shard group re-records
  // shard-local spans under track shard+1 so one recorder can hold several
  // shards' resource occupancy without false overlaps. The Perfetto exporter
  // renders each track as its own process.
  std::uint32_t track = 0;
};

class TraceRecorder {
 public:
  void enable(bool on = true) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  void clear() {
    events_.clear();
    current_request_ = kNoRequest;
    current_track_ = 0;
  }

  /// Events recorded from here on carry this request's identity.
  void begin_request(std::size_t id) { current_request_ = id; }
  void end_request() { current_request_ = kNoRequest; }
  std::size_t current_request() const { return current_request_; }

  /// Events recorded from here on land on this track (0 = the recording
  /// service; a shard group uses shard+1 for re-recorded shard spans).
  void set_track(std::uint32_t track) { current_track_ = track; }
  std::uint32_t current_track() const { return current_track_; }

  /// A resource occupancy placed by a scheduler. `requested_s` is the
  /// dependence-allowed earliest start; `start_s - requested_s` is the time
  /// the stage waited for its resource (the pipeline bubble).
  void span(TraceCategory category, const char* name, Resource resource,
            double start_s, double end_s, double requested_s) {
    if (!enabled_) return;
    events_.push_back({TraceEventKind::kSpan, category, name,
                       /*has_resource=*/true, resource, current_request_,
                       start_s, end_s, requested_s, kNoDeviceOp,
                       current_track_});
  }

  /// A point event on a resource track (fault observed, retry issued, ...).
  void instant_on(TraceCategory category, const char* name, Resource resource,
                  double t_s, std::uint64_t device_op = kNoDeviceOp) {
    if (!enabled_) return;
    events_.push_back({TraceEventKind::kInstant, category, name,
                       /*has_resource=*/true, resource, current_request_, t_s,
                       t_s, t_s, device_op, current_track_});
  }

  /// A point event on the service track (degradation, cancellation,
  /// plan-cache decisions — nothing occupies a device).
  void instant(TraceCategory category, const char* name, double t_s) {
    if (!enabled_) return;
    events_.push_back({TraceEventKind::kInstant, category, name,
                       /*has_resource=*/false, Resource::kCpu,
                       current_request_, t_s, t_s, t_s, kNoDeviceOp,
                       current_track_});
  }

  const std::vector<TraceEvent>& events() const { return events_; }

 private:
  bool enabled_ = false;
  std::size_t current_request_ = kNoRequest;
  std::uint32_t current_track_ = 0;
  std::vector<TraceEvent> events_;
};

}  // namespace hh
