// Fig. 6: HH-CPU speedup over the HiPC2012 heterogeneous algorithm on every
// Table I matrix (paper: avg ≈ 25 %), plus the library baselines
// (paper: ≈ 4× over cuSPARSE, ≈ 3.6× over MKL).
#include <cstdio>

#include "bench_common.hpp"

int main() {
  using namespace hh;
  using namespace hh::bench;
  print_header("Fig. 6: HH-CPU speedup over HiPC2012 (plus library baselines)");

  ThreadPool pool(0);
  const double scale = default_bench_scale();
  const HeteroPlatform plat = make_scaled_platform(scale);

  std::printf("%-16s %10s %10s | %8s %8s %8s\n", "matrix", "HH-CPU ms",
              "HiPC ms", "x HiPC", "x MKL", "x cuSP");
  double sum_hipc = 0, sum_mkl = 0, sum_cusp = 0;
  int n = 0;
  for (const DatasetSpec& spec : table1_datasets()) {
    const CsrMatrix a = make_dataset(spec, scale);
    const RunResult hh = run_hh_best(a, plat, pool);
    const RunResult hipc = run_hipc2012(a, a, plat, pool);
    const RunResult mkl = run_cpu_only_mkl(a, a, plat, pool);
    const RunResult cusp = run_gpu_only_cusparse(a, a, plat, pool);
    check_same(hh.c, hipc);
    check_same(hh.c, mkl);
    check_same(hh.c, cusp);

    const double s_hipc = hipc.report.total_s / hh.report.total_s;
    const double s_mkl = mkl.report.total_s / hh.report.total_s;
    const double s_cusp = cusp.report.total_s / hh.report.total_s;
    sum_hipc += s_hipc;
    sum_mkl += s_mkl;
    sum_cusp += s_cusp;
    ++n;
    std::printf("%-16s %10.3f %10.3f | %8.2f %8.2f %8.2f\n", spec.name,
                hh.report.total_s * 1e3, hipc.report.total_s * 1e3, s_hipc,
                s_mkl, s_cusp);
  }
  std::printf("%-16s %10s %10s | %8.2f %8.2f %8.2f\n", "Average", "", "",
              sum_hipc / n, sum_mkl / n, sum_cusp / n);
  std::printf("\npaper: Average x HiPC ~= 1.25, x MKL ~= 3.6, x cuSPARSE ~= 4\n");
  return 0;
}
