// Fig. 7: per-phase time breakdown of Algorithm HH-CPU on every matrix.
// Paper: Phases II + III are > 96 % of the total; per-phase CPU/GPU gap is
// small (< 2 % of the runtime on average) thanks to the workqueue.
#include <cmath>
#include <cstdio>

#include "bench_common.hpp"

int main() {
  using namespace hh;
  using namespace hh::bench;
  print_header("Fig. 7: phase breakdown of HH-CPU");

  ThreadPool pool(0);
  const double scale = default_bench_scale();
  const HeteroPlatform plat = make_scaled_platform(scale);

  std::printf("%-16s %8s %9s %9s %8s %9s | %7s %9s\n", "matrix", "I ms",
              "II ms", "III ms", "IV ms", "xfer ms", "II+III%", "dev gap%");
  double sum_share = 0, sum_gap = 0;
  int n = 0;
  for (const DatasetSpec& spec : table1_datasets()) {
    const CsrMatrix a = make_dataset(spec, scale);
    const RunResult hh = run_hh_best(a, plat, pool);
    const RunReport& r = hh.report;
    const double phases = r.phase1_s + r.phase2_s + r.phase3_s + r.phase4_s;
    const double share = phases > 0 ? (r.phase2_s + r.phase3_s) / phases : 0;
    // Average per-phase CPU/GPU imbalance relative to the total runtime.
    const double gap = (std::abs(r.phase2_cpu_s - r.phase2_gpu_s) +
                        std::abs(r.phase3_cpu_s - r.phase3_gpu_s)) /
                       2.0 / r.total_s;
    sum_share += share;
    sum_gap += gap;
    ++n;
    std::printf("%-16s %8.3f %9.3f %9.3f %8.3f %9.3f | %7.1f %9.1f\n",
                spec.name, r.phase1_s * 1e3, r.phase2_s * 1e3,
                r.phase3_s * 1e3, r.phase4_s * 1e3,
                (r.transfer_in_s + r.transfer_out_s) * 1e3, share * 100,
                gap * 100);
  }
  std::printf("%-16s %55s %7.1f %9.1f\n", "Average", "", sum_share / n * 100,
              sum_gap / n * 100);
  std::printf("\npaper: Phases II+III >= 96%% of phase time; device gap ~2%%\n");
  return 0;
}
