// Threshold tuning: walks the Fig. 8 experiment for one matrix — sweep the
// high-density threshold t, print total / Phase II / Phase III times, and
// compare the empirical optimum with the analytic (model-based) pick that
// the paper lists as future work (§VI).
//
//   ./threshold_tuning [dataset-name]     (default: web-Google)
#include <cstdio>
#include <string>
#include <vector>

#include "core/hh_cpu.hpp"
#include "core/threshold.hpp"
#include "gen/datasets.hpp"

int main(int argc, char** argv) {
  using namespace hh;
  ThreadPool pool(0);
  const double scale = 0.05;
  const HeteroPlatform platform = make_scaled_platform(scale);

  const std::string name = argc > 1 ? argv[1] : "web-Google";
  const CsrMatrix a = make_dataset(dataset_spec(name), scale);
  std::printf("matrix: %s analogue (%s)\n\n", name.c_str(),
              a.summary().c_str());

  std::printf("%10s %12s %12s %12s %8s %8s\n", "t", "total ms", "II ms",
              "III ms", "|A_H|", "|B_H|");
  offset_t best_t = 0;
  double best_total = -1;
  // The cost-only dry run of every candidate from one symbolic pass: the
  // full runs' reports without the products.
  const std::vector<offset_t> grid = threshold_candidates(a);
  const std::vector<RunReport> sweep =
      cost_hh_cpu_grid(a, a, grid, {}, platform, pool);
  for (std::size_t g = 0; g < grid.size(); ++g) {
    const RunReport& run = sweep[g];
    std::printf("%10lld %12.3f %12.3f %12.3f %8d %8d\n",
                static_cast<long long>(grid[g]), run.total_s * 1e3,
                run.phase2_s * 1e3, run.phase3_s * 1e3, run.high_rows_a,
                run.high_rows_b);
    if (best_total < 0 || run.total_s < best_total) {
      best_total = run.total_s;
      best_t = grid[g];
    }
  }

  const ThresholdChoice analytic = pick_threshold_analytic(a, a, platform);
  std::printf("\nempirical best: t = %lld (%.3f ms)\n",
              static_cast<long long>(best_t), best_total * 1e3);
  std::printf("analytic pick:  t = %lld (predicted %.3f ms)\n",
              static_cast<long long>(analytic.t), analytic.predicted_s * 1e3);
  std::printf("\nthe curve is convex: small t overloads the CPU, large t"
              " overloads the GPU (paper SV-B(d))\n");
  return 0;
}
