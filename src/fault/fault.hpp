// Deterministic, seed-driven fault injection for the simulated platform.
//
// A FaultPlan describes, per fault site, when the simulated hardware
// misbehaves: transient GPU kernel aborts, PCIe transfer failures or
// payload corruption (the transfer runs to completion and is re-sent), and
// CPU worker stalls. The schedule is a pure function of (seed, site, op index)
// — NOT of the order in which sites are interrogated — so two services
// configured with the same plan see bit-identical fault schedules no matter
// how their requests interleave, and a replay with the same seed reproduces
// the same faults, the same recovery decisions, and the same reports.
//
// Two knobs compose per site (both may be active at once):
//   rate         — stationary Bernoulli fault probability per operation;
//   trigger_ops  — fixed op indices that always fault (unit-test precision).
//
// The injector only *decides*; the simulated devices (device/gpu_sim,
// device/pcie, device/cpu_sim) turn decisions into DeviceAttempt outcomes
// and the service runtime (runtime/service) turns those into retries,
// re-uploads, and CPU-only degradation. Numeric results are host-computed
// and never pass through the injector, which is why recovery can promise
// bit-identical output (docs/robustness.md).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/prng.hpp"

namespace hh {

enum class FaultSite {
  kGpuKernel = 0,
  kH2D = 1,
  kD2H = 2,
  kCpuWorker = 3,
  // Whole-node failure: a shard process dies and must be restarted. Never
  // interrogated by the device simulators — the shard group runtime
  // (src/shard/) owns its own injector and consumes one kShard op per shard
  // slot per scheduling round, so a kill schedule is as replayable as any
  // device-fault schedule.
  kShard = 4,
};
inline constexpr int kFaultSiteCount = 5;

/// Per-site fault schedule description.
struct FaultSpec {
  double rate = 0;  // stationary per-op fault probability in [0, 1]
  std::vector<std::uint64_t> trigger_ops;  // always fault at these op indices

  bool enabled() const { return rate > 0 || !trigger_ops.empty(); }
};

struct FaultPlan {
  std::uint64_t seed = 0x5eedfa117a5c1234ULL;
  FaultSpec gpu_kernel;  // transient kernel aborts
  FaultSpec h2d;         // host→device transfer faults
  FaultSpec d2h;         // device→host transfer faults
  FaultSpec cpu_worker;  // worker stalls (delay, not failure)
  FaultSpec shard;       // whole-shard kills (src/shard/ group runtime only)

  /// Of the injected transfer faults, this fraction are corruptions: the
  /// transfer runs to completion but the payload fails checksum
  /// verification, forcing a re-send (and residency invalidation for
  /// uploads). The rest are hard failures that abort partway through.
  double transfer_corruption_fraction = 0.5;

  /// Extra occupancy a stalled CPU stage pays (simulated seconds).
  static constexpr double kCpuStallS = 5e-4;

  const FaultSpec& spec(FaultSite site) const;
  /// Device-site faults only: the service runtime keys "do I need an
  /// injector?" on this, and kShard is consumed by the shard group's own
  /// injector, never by the per-shard service.
  bool enabled() const {
    return gpu_kernel.enabled() || h2d.enabled() || d2h.enabled() ||
           cpu_worker.enabled();
  }
};

/// Verdict for one operation at one site.
struct FaultDecision {
  bool fault = false;
  bool corrupt = false;   // transfer sites: full time spent, checksum fails
  double fraction = 1.0;  // portion of the op completed before an abort
  double stall_s = 0;     // kCpuWorker: extra occupancy, no failure
  std::uint64_t op = 0;   // site-local op index this decision consumed
};

struct FaultCounters {
  std::uint64_t ops = 0;
  std::uint64_t faults = 0;
  std::uint64_t corruptions = 0;
  double stall_s = 0;
};

/// Sentinel op index for attempts that consumed no injector operation
/// (no-work ops, or runs without an injector).
inline constexpr std::uint64_t kNoDeviceOp = static_cast<std::uint64_t>(-1);

/// Outcome of one fault-aware device operation (a kernel launch, one
/// direction of a PCIe transfer, a CPU stage). elapsed_s is the simulated
/// time the attempt occupied its resource whether or not it succeeded. op is
/// the injector's site-local op index the attempt consumed (kNoDeviceOp when
/// none): it ties every attempt in a trace back to the deterministic fault
/// schedule, so a trace can be reconciled op-by-op against FaultCounters.
struct DeviceAttempt {
  bool ok = true;
  bool corrupt = false;  // failed checksum verification after the transfer
  double elapsed_s = 0;
  std::uint64_t op = kNoDeviceOp;
};

class FaultInjector {
 public:
  FaultInjector() = default;
  explicit FaultInjector(FaultPlan plan);

  /// Decide the fate of the next operation at `site` (advances that site's
  /// op counter and fault counters; the decision itself depends only on the
  /// plan and the site-local op index).
  FaultDecision next(FaultSite site);

  const FaultPlan& plan() const { return plan_; }
  const FaultCounters& counters(FaultSite site) const {
    return counters_[static_cast<int>(site)];
  }

  /// Restart the schedule from op 0 everywhere (same plan ⇒ same schedule).
  void reset();

 private:
  FaultPlan plan_;
  std::uint64_t op_[kFaultSiteCount] = {};
  FaultCounters counters_[kFaultSiteCount] = {};
};

}  // namespace hh
