// Fig. 10: speedup of HH-CPU over HiPC2012 on synthetic GTgraph-style
// matrices as a function of the power-law exponent α, for three matrix
// sizes. Paper: speedup decreases as α grows (less scale-free), and the
// smallest size sits highest (Phase IV tuple volume grows with size, §V-D).
// Unlike the Table I runs, A and B are two *different* matrices with the
// same α (paper §V-D).
#include <cstdio>

#include "bench_common.hpp"
#include "gen/powerlaw_gen.hpp"

int main() {
  using namespace hh;
  using namespace hh::bench;
  print_header("Fig. 10: speedup vs alpha on synthetic matrices");

  ThreadPool pool(0);
  const double scale = default_bench_scale();
  const HeteroPlatform plat = make_scaled_platform(scale);

  // Paper sizes 100K / 500K / 1M rows, avg degree ~6, scaled like the rest.
  const index_t paper_sizes[3] = {100000, 500000, 1000000};
  std::printf("%8s", "alpha");
  for (const index_t rows : paper_sizes) std::printf(" %9dK", rows / 1000);
  std::printf("\n");

  for (double alpha = 3.0; alpha <= 6.51; alpha += 0.5) {
    std::printf("%8.1f", alpha);
    for (const index_t paper_rows : paper_sizes) {
      PowerLawGenConfig cfg;
      cfg.rows = static_cast<index_t>(paper_rows * scale * 0.6);
      cfg.alpha = alpha;
      cfg.target_nnz = static_cast<std::int64_t>(cfg.rows) * 6;
      cfg.kmin = alpha > 2.2 ? std::max<std::int64_t>(
                                   1, static_cast<std::int64_t>(
                                          6.0 * (alpha - 2.0) / (alpha - 1.0)))
                             : 1;
      cfg.seed = 1000 + static_cast<std::uint64_t>(alpha * 10) + paper_rows;
      const CsrMatrix a = generate_power_law_matrix(cfg);
      cfg.seed += 7;
      const CsrMatrix b = generate_power_law_matrix(cfg);

      // Small empirical sweep for the per-instance best threshold.
      double best_hh = -1;
      for (const RunReport& hh :
           cost_hh_cpu_grid(a, b, threshold_candidates(a, 6), {}, plat, pool)) {
        if (best_hh < 0 || hh.total_s < best_hh) best_hh = hh.total_s;
      }
      const RunResult hipc = run_hipc2012(a, b, plat, pool);
      std::printf(" %10.2f", hipc.report.total_s / best_hh);
    }
    std::printf("\n");
  }
  std::printf("\npaper: speedup decreases with alpha; the smallest size is"
              " highest\n");
  return 0;
}
