#include "fault/fault.hpp"

namespace hh {
namespace {

// One draw from the decision stream for (seed, site, op, salt). Each salt
// indexes an independent stream so the fault/corruption/fraction draws of
// one op do not correlate.
double uniform_draw(std::uint64_t seed, FaultSite site, std::uint64_t op,
                    std::uint64_t salt) {
  std::uint64_t state = seed;
  state ^= (static_cast<std::uint64_t>(site) + 1) * 0x9e3779b97f4a7c15ULL;
  state ^= (op + 1) * 0xbf58476d1ce4e5b9ULL;
  state ^= (salt + 1) * 0x94d049bb133111ebULL;
  const std::uint64_t bits = splitmix64(state);
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

}  // namespace

const FaultSpec& FaultPlan::spec(FaultSite site) const {
  switch (site) {
    case FaultSite::kGpuKernel: return gpu_kernel;
    case FaultSite::kH2D: return h2d;
    case FaultSite::kD2H: return d2h;
    case FaultSite::kCpuWorker: return cpu_worker;
    case FaultSite::kShard: return shard;
  }
  return gpu_kernel;  // unreachable
}

FaultInjector::FaultInjector(FaultPlan plan) : plan_(std::move(plan)) {
  for (FaultSpec* s : {&plan_.gpu_kernel, &plan_.h2d, &plan_.d2h,
                       &plan_.cpu_worker, &plan_.shard}) {
    std::sort(s->trigger_ops.begin(), s->trigger_ops.end());
  }
}

FaultDecision FaultInjector::next(FaultSite site) {
  const int idx = static_cast<int>(site);
  const FaultSpec& spec = plan_.spec(site);
  FaultDecision d;
  d.op = op_[idx]++;
  FaultCounters& ctr = counters_[idx];
  ctr.ops++;

  const bool triggered =
      std::binary_search(spec.trigger_ops.begin(), spec.trigger_ops.end(),
                         d.op);
  if (!triggered &&
      (spec.rate <= 0 ||
       uniform_draw(plan_.seed, site, d.op, /*salt=*/0) >= spec.rate)) {
    return d;  // healthy op
  }

  d.fault = true;
  ctr.faults++;
  if (site == FaultSite::kH2D || site == FaultSite::kD2H) {
    d.corrupt = uniform_draw(plan_.seed, site, d.op, /*salt=*/1) <
                plan_.transfer_corruption_fraction;
    if (d.corrupt) ctr.corruptions++;
  }
  if (site == FaultSite::kCpuWorker) {
    d.stall_s = FaultPlan::kCpuStallS;
    ctr.stall_s += d.stall_s;
  }
  // Aborts happen somewhere in the middle of the op, never at 0% or 100%.
  d.fraction = 0.05 + 0.9 * uniform_draw(plan_.seed, site, d.op, /*salt=*/2);
  return d;
}

void FaultInjector::reset() {
  for (int i = 0; i < kFaultSiteCount; ++i) {
    op_[i] = 0;
    counters_[i] = FaultCounters{};
  }
}

}  // namespace hh
