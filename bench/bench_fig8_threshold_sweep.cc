// Fig. 8: effect of the threshold t on the total time and on Phases II/III,
// per matrix. Paper: the total is convex in t; the t→0 end approaches the
// MKL (CPU-only) time, and the largest-threshold end approaches the GPU-side
// behaviour of [13].
#include <cstdio>
#include <vector>

#include "bench_common.hpp"

int main() {
  using namespace hh;
  using namespace hh::bench;
  print_header("Fig. 8: threshold sweep (total / Phase II / Phase III)");

  ThreadPool pool(0);
  const double scale = default_bench_scale();
  const HeteroPlatform plat = make_scaled_platform(scale);

  for (const DatasetSpec& spec : table1_datasets()) {
    const CsrMatrix a = make_dataset(spec, scale);
    const RunResult mkl = run_cpu_only_mkl(a, a, plat, pool);
    std::printf("--- %s (MKL reference %.3f ms) ---\n", spec.name,
                mkl.report.total_s * 1e3);
    std::printf("%10s %12s %12s %12s\n", "t", "total ms", "phase II ms",
                "phase III ms");
    double best = -1;
    const std::vector<offset_t> grid = threshold_candidates(a);
    const std::vector<RunReport> sweep =
        cost_hh_cpu_grid(a, a, grid, {}, plat, pool);
    for (std::size_t g = 0; g < grid.size(); ++g) {
      const RunReport& hh = sweep[g];
      if (best < 0 || hh.total_s < best) best = hh.total_s;
      std::printf("%10lld %12.3f %12.3f %12.3f\n",
                  static_cast<long long>(grid[g]), hh.total_s * 1e3,
                  hh.phase2_s * 1e3, hh.phase3_s * 1e3);
    }
    std::printf("%10s %12.3f\n\n", "best", best * 1e3);
  }
  return 0;
}
