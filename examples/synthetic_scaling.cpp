// Synthetic scaling study: how does the HH-CPU advantage react to the
// degree of scale-freeness? Generates matrices over a grid of power-law
// exponents (the Fig. 10 experiment at a single size) and prints the
// speedup over the HiPC2012 baseline together with the fitted α.
//
//   ./synthetic_scaling [rows]            (default: 20000)
#include <cstdio>
#include <cstdlib>

#include "core/baselines.hpp"
#include "core/hh_cpu.hpp"
#include "core/threshold.hpp"
#include "gen/powerlaw_gen.hpp"
#include "powerlaw/fit.hpp"
#include "sparse/row_stats.hpp"

int main(int argc, char** argv) {
  using namespace hh;
  ThreadPool pool(0);
  const HeteroPlatform platform = make_scaled_platform(0.05);
  const index_t rows = argc > 1 ? std::atoi(argv[1]) : 20000;

  std::printf("%8s %10s %12s %12s %10s\n", "alpha", "fit alpha", "HH-CPU ms",
              "HiPC ms", "speedup");
  for (double alpha = 2.2; alpha <= 6.3; alpha += 0.8) {
    PowerLawGenConfig cfg;
    cfg.rows = rows;
    cfg.alpha = alpha;
    cfg.target_nnz = static_cast<std::int64_t>(rows) * 6;
    cfg.seed = 77 + static_cast<std::uint64_t>(alpha * 100);
    const CsrMatrix a = generate_power_law_matrix(cfg);
    cfg.seed += 3;
    const CsrMatrix b = generate_power_law_matrix(cfg);

    const PowerLawFit fit = fit_power_law(row_nnz_vector(a));

    double best = -1;
    for (const RunReport& run : cost_hh_cpu_grid(
             a, b, threshold_candidates(a, 6), {}, platform, pool)) {
      if (best < 0 || run.total_s < best) best = run.total_s;
    }
    const RunResult hipc = run_hipc2012(a, b, platform, pool);
    std::printf("%8.1f %10.2f %12.3f %12.3f %9.2fx\n", alpha, fit.alpha,
                best * 1e3, hipc.report.total_s * 1e3,
                hipc.report.total_s / best);
  }
  std::printf("\nlower alpha (more scale-free) -> bigger HH-CPU advantage\n");
  return 0;
}
