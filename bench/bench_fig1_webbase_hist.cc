// Fig. 1: row histogram of webbase-1M. Very few rows have >= 60 nonzeros
// (the gray "high density" bars); the bulk sit far below. Log-scale counts.
#include <cstdio>

#include "bench_common.hpp"
#include "powerlaw/histogram.hpp"
#include "sparse/row_stats.hpp"

int main() {
  using namespace hh;
  bench::print_header("Fig. 1: row histogram of webbase-1M");

  const CsrMatrix m =
      make_dataset(dataset_spec("webbase-1M"), default_bench_scale());
  const std::vector<offset_t> sizes = row_nnz_vector(m);
  const std::vector<std::int64_t> data(sizes.begin(), sizes.end());

  // The paper's threshold for webbase-1M is 60 nonzeros per row.
  const std::int64_t threshold = 60;
  std::printf("%s\n", render_histogram(log2_histogram(data), threshold).c_str());
  std::printf("rows with >= %lld nonzeros (HD): %d of %d\n",
              static_cast<long long>(threshold),
              count_rows_at_least(m, threshold), m.rows);
  return 0;
}
