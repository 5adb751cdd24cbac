// The paper's §VI extension: heterogeneous csrmm (sparse scale-free A times
// dense B) with the same H/L work division. Compares HH-CSRMM against
// CPU-only and GPU-only execution of the same kernels across dense widths.
#include <cstdio>

#include "bench_common.hpp"
#include "core/csrmm.hpp"
#include "sparse/dense.hpp"

int main() {
  using namespace hh;
  using namespace hh::bench;
  print_header("Extension (paper SVI): heterogeneous csrmm");

  ThreadPool pool(0);
  const double scale = default_bench_scale();
  const HeteroPlatform plat = make_scaled_platform(scale);
  const CsrMatrix a = make_dataset(dataset_spec("web-Google"), scale * 0.5);

  std::printf("A: web-Google analogue (%s)\n\n", a.summary().c_str());
  for (const bool resident : {false, true}) {
    std::printf("--- operands %s ---\n",
                resident ? "resident on the GPU (iterative workload)"
                         : "cold (one-shot: PCIe charged)");
    std::printf("%8s %12s %12s %12s %10s %10s\n", "width", "HH ms", "CPU ms",
                "GPU ms", "x CPU", "x GPU");
    for (const index_t width : {4, 16, 64}) {
      const DenseMatrix b = random_dense(a.cols, width, 99 + width);
      CsrmmOptions auto_opt;
      auto_opt.matrices_already_on_gpu = resident;
      const CsrmmResult hh = run_hh_csrmm(a, b, auto_opt, plat, pool);
      const DenseMatrix want = csrmm_reference(a, b);
      if (max_abs_diff(want, hh.c) > 1e-9) {
        std::fprintf(stderr, "csrmm mismatch!\n");
        return 1;
      }
      // Single-device references: all rows on one side.
      CsrmmOptions cpu_only = auto_opt;
      cpu_only.threshold = 1;  // everything high -> CPU
      CsrmmOptions gpu_only = auto_opt;
      gpu_only.threshold = a.nnz() + 1;  // everything low -> GPU
      const CsrmmResult cpu = run_hh_csrmm(a, b, cpu_only, plat, pool);
      const CsrmmResult gpu = run_hh_csrmm(a, b, gpu_only, plat, pool);
      std::printf("%8d %12.3f %12.3f %12.3f %10.2f %10.2f\n", width,
                  hh.report.total_s * 1e3, cpu.report.total_s * 1e3,
                  gpu.report.total_s * 1e3,
                  cpu.report.total_s / hh.report.total_s,
                  gpu.report.total_s / hh.report.total_s);
    }
    std::printf("\n");
  }
  std::printf("cold operands at these densities are PCIe-bound (all-CPU is\n"
              "optimal and the picker selects it); with resident operands the\n"
              "paper's SVI division beats both single-device runs\n");
  return 0;
}
