// Table I: the 12-matrix dataset suite — rows, nnz, and the power-law
// exponent α of the row sizes (fitted with the library's Alstott-equivalent
// estimator). Paper values are printed alongside the generated analogues.
#include <cstdio>

#include "bench_common.hpp"
#include "powerlaw/fit.hpp"
#include "sparse/row_stats.hpp"

int main() {
  using namespace hh;
  bench::print_header("Table I: dataset suite (paper vs generated analogue)");

  const double scale = default_bench_scale();
  std::printf("%-16s %10s %12s %8s | %10s %12s %10s %8s\n", "matrix",
              "rows", "nnz", "alpha", "gen rows", "gen nnz", "gen a-fit",
              "max row");
  for (const DatasetSpec& spec : table1_datasets()) {
    const CsrMatrix m = make_dataset(spec, scale);
    const PowerLawFit fit = fit_power_law(row_nnz_vector(m));
    const RowStats rs = row_stats(m);
    // Very steep fits are reported as ">6.5" — like the paper's own α column
    // these just mean "not scale-free".
    char alpha_buf[32];
    if (fit.alpha > 6.5) {
      std::snprintf(alpha_buf, sizeof(alpha_buf), ">6.5");
    } else {
      std::snprintf(alpha_buf, sizeof(alpha_buf), "%.2f", fit.alpha);
    }
    std::printf("%-16s %10d %12lld %8.2f | %10d %12lld %10s %8lld\n",
                spec.name, spec.rows, static_cast<long long>(spec.nnz),
                spec.alpha, m.rows, static_cast<long long>(m.nnz()),
                alpha_buf, static_cast<long long>(rs.max));
  }
  std::printf("\n(analogues are scaled by %.2f; α is fitted on generated row"
              " sizes — scale-free specs should fit low α, the α>6.5 specs"
              " are intentionally not power-law)\n", scale);
  return 0;
}
