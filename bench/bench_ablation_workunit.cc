// Ablation: the work-unit sizes of the Phase III queue. The paper fixes
// cpuRows = 1000 and gpuRows = 10000 empirically (§IV-B); this sweep shows
// the sensitivity — too-small units pay dequeue/launch overhead, too-large
// units destroy the load balance.
#include <cstdio>

#include "bench_common.hpp"

int main() {
  using namespace hh;
  using namespace hh::bench;
  print_header("Ablation: Phase III work-unit sizes (paper fixes 1000/10000)");

  ThreadPool pool(0);
  const double scale = default_bench_scale();
  const HeteroPlatform plat = make_scaled_platform(scale);
  const CsrMatrix a = make_dataset(dataset_spec("web-Google"), scale);
  const ThresholdChoice choice = pick_threshold_empirical(a, a, plat, pool);

  std::printf("matrix: web-Google analogue, t = %lld\n\n",
              static_cast<long long>(choice.t));
  std::printf("%10s %10s %12s %10s %10s\n", "cpuRows", "gpuRows", "total ms",
              "cpu units", "gpu units");
  for (const index_t cpu_rows : {8, 32, 128, 512, 2048, 8192}) {
    HhCpuOptions opt;
    opt.threshold_a = choice.t;
    opt.threshold_b = choice.t;
    opt.queue.cpu_rows = cpu_rows;
    opt.queue.gpu_rows = cpu_rows * 10;
    const RunReport hh = cost_hh_cpu(a, a, opt, plat, pool);
    std::printf("%10d %10d %12.3f %10d %10d\n", cpu_rows, cpu_rows * 10,
                hh.total_s * 1e3, hh.queue_cpu_units, hh.queue_gpu_units);
  }
  return 0;
}
