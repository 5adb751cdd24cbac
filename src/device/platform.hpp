// The CPU+GPU heterogeneous platform: both simulated devices plus the link.
// Overlapped regions (the paper's "CPU, GPU::" labels) take the max of the
// two device clocks; transfers are charged on the link.
#pragma once

#include <algorithm>

#include "device/cost_model.hpp"
#include "device/cpu_sim.hpp"
#include "device/gpu_sim.hpp"
#include "device/pcie.hpp"

namespace hh {

class HeteroPlatform {
 public:
  explicit HeteroPlatform(const CostModel& cm = CostModel{})
      : cm_(cm), cpu_(cm.cpu), gpu_(cm.gpu), link_(cm.pcie) {}

  const CostModel& cost_model() const { return cm_; }
  const CpuSim& cpu() const { return cpu_; }
  const GpuSim& gpu() const { return gpu_; }
  const PcieLink& link() const { return link_; }

  /// Elapsed time of an overlapped region (paper label "CPU, GPU::").
  static double overlap(double cpu_time, double gpu_time) {
    return std::max(cpu_time, gpu_time);
  }

 private:
  CostModel cm_;
  CpuSim cpu_;
  GpuSim gpu_;
  PcieLink link_;
};

/// Platform for experiments run on instances shrunk by `scale` (the bench
/// default is 0.1, from default_bench_scale(), so the suite fits modest CI
/// hardware). The simulated machine's *capacity* parameters — LLC size and
/// the GPU shared-accumulator cap — are shrunk by the same factor so that a
/// scaled instance exercises the same cache-pressure and
/// shared-vs-global-accumulator regimes the full-size instance would on the
/// real machine. Rate parameters (clocks, bandwidths, core counts) are
/// untouched.
///
/// Note: this also sets the process-global shared-accumulator cap used by
/// the kernels' statistics (see spgemm.hpp); call it before running any
/// product whose stats feed the models.
HeteroPlatform make_scaled_platform(double scale, CostModel cm = CostModel{});

}  // namespace hh
