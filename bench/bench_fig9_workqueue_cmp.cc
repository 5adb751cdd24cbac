// Fig. 9: HH-CPU vs the Unsorted-Workqueue and Sorted-Workqueue alternatives
// (paper §V-C: HH-CPU ≈ 15 % faster on average — load balancing alone is not
// enough, the assignment must be architecture-aware).
#include <cstdio>

#include "bench_common.hpp"

int main() {
  using namespace hh;
  using namespace hh::bench;
  print_header("Fig. 9: HH-CPU vs Unsorted-/Sorted-Workqueue");

  ThreadPool pool(0);
  const double scale = default_bench_scale();
  const HeteroPlatform plat = make_scaled_platform(scale);

  std::printf("%-16s %10s | %12s %12s\n", "matrix", "HH-CPU ms",
              "x Unsorted", "x Sorted");
  double sum_uns = 0, sum_srt = 0;
  int n = 0;
  for (const DatasetSpec& spec : table1_datasets()) {
    const CsrMatrix a = make_dataset(spec, scale);
    const RunResult hh = run_hh_best(a, plat, pool);
    const RunResult uns = run_unsorted_workqueue(a, a, {}, plat, pool);
    const RunResult srt = run_sorted_workqueue(a, a, {}, plat, pool);
    check_same(hh.c, uns);
    check_same(hh.c, srt);
    const double s_uns = uns.report.total_s / hh.report.total_s;
    const double s_srt = srt.report.total_s / hh.report.total_s;
    sum_uns += s_uns;
    sum_srt += s_srt;
    ++n;
    std::printf("%-16s %10.3f | %12.2f %12.2f\n", spec.name,
                hh.report.total_s * 1e3, s_uns, s_srt);
  }
  std::printf("%-16s %10s | %12.2f %12.2f\n", "Average", "", sum_uns / n,
              sum_srt / n);
  std::printf("\npaper: ~1.15x over both workqueue variants on scale-free"
              " matrices\n");
  return 0;
}
