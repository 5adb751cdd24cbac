// Fig. 5: row-density histograms of all 12 matrices, with the per-matrix
// high-density threshold used in the experiments and the resulting HD row
// count (the paper's legend values).
#include <cstdio>

#include "bench_common.hpp"
#include "powerlaw/histogram.hpp"
#include "sparse/row_stats.hpp"

int main() {
  using namespace hh;
  using namespace hh::bench;
  print_header("Fig. 5: row-density histograms, all 12 matrices");

  ThreadPool pool(0);
  const double scale = default_bench_scale();
  const HeteroPlatform plat = make_scaled_platform(scale);
  for (const DatasetSpec& spec : table1_datasets()) {
    const CsrMatrix m = make_dataset(spec, scale);
    const ThresholdChoice choice = pick_threshold_analytic(m, m, plat);
    const std::vector<offset_t> sizes = row_nnz_vector(m);
    const std::vector<std::int64_t> data(sizes.begin(), sizes.end());
    std::printf("--- %s (%s) | Threshold=%lld HD=%d ---\n", spec.name,
                m.summary().c_str(), static_cast<long long>(choice.t),
                count_rows_at_least(m, choice.t));
    std::printf("%s\n", render_histogram(log2_histogram(data), choice.t).c_str());
  }
  return 0;
}
