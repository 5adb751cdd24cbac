// Real wall-clock microbenchmarks of the host kernels (google-benchmark):
// the two full-product kernels multiply() dispatches (Gustavson's SPA and
// the row-column formulation of §II-A), HH-CPU's numeric pass, the Phase IV
// run merge, and the power-law generator. These measure the actual C++
// implementations on the build machine — unlike the figure benches,
// nothing here is simulated.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "gen/powerlaw_gen.hpp"
#include "primitives/tuple_merge.hpp"
#include "sparse/convert.hpp"
#include "sparse/partition.hpp"
#include "spgemm/gustavson.hpp"
#include "spgemm/row_column.hpp"
#include "spgemm/spgemm.hpp"
#include "spgemm/symbolic.hpp"

namespace {

hh::CsrMatrix bench_matrix(hh::index_t rows) {
  hh::PowerLawGenConfig cfg;
  cfg.rows = rows;
  cfg.alpha = 2.5;
  cfg.target_nnz = static_cast<std::int64_t>(rows) * 5;
  cfg.seed = 12345;
  return hh::generate_power_law_matrix(cfg);
}

// The kernel behind every stored product: the count pass, then the one SPA
// numeric pass one-sided, over a ThreadPool(0) as BM_NumericInHalves runs
// the sided instantiation.
void BM_GustavsonSpgemm(benchmark::State& state) {
  const hh::CsrMatrix a = bench_matrix(static_cast<hh::index_t>(state.range(0)));
  hh::ThreadPool pool(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hh::gustavson_spgemm_parallel(a, a, pool));
  }
  state.SetItemsProcessed(state.iterations() * hh::total_flops(a, a));
}
BENCHMARK(BM_GustavsonSpgemm)->Arg(2000)->Arg(8000);

void BM_RowColumnSpgemm(benchmark::State& state) {
  const hh::CsrMatrix a = bench_matrix(static_cast<hh::index_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(hh::row_column_spgemm(a, a));
  }
  state.SetItemsProcessed(state.iterations() * hh::total_flops(a, a));
}
BENCHMARK(BM_RowColumnSpgemm)->Arg(2000);

// The B rows at or above the mean density are high: the Phase II/III shape.
hh::RowPartition mean_density_split(const hh::CsrMatrix& a) {
  return hh::classify_rows(a, a.nnz() / a.rows);
}

// HH-CPU's numeric pass, the sided instantiation: every A row against its
// own B side, then the other, into C sized by the symbolic count.
void BM_NumericInHalves(benchmark::State& state) {
  const hh::CsrMatrix a = bench_matrix(4000);
  hh::ThreadPool pool(0);
  const hh::RowPartition p = mean_density_split(a);
  const std::vector<hh::offset_t> sizes = hh::exact_row_nnz(a, a);
  for (auto _ : state) {
    hh::CsrMatrix c(a.rows, a.cols);
    std::copy(sizes.begin(), sizes.end(), c.indptr.begin() + 1);
    hh::numeric_in_halves(a, a, p.is_high, p.is_high, c, pool);
    benchmark::DoNotOptimize(c);
  }
  state.SetItemsProcessed(state.iterations() * hh::total_flops(a, a));
}
BENCHMARK(BM_NumericInHalves);

// The known-pattern pass on the same product and split: C's pattern, kept
// from one full pass, takes the columns, and only the values are summed,
// as a repeated service request writes C.
void BM_NumericInHalvesKnownPattern(benchmark::State& state) {
  const hh::CsrMatrix a = bench_matrix(4000);
  hh::ThreadPool pool(0);
  const hh::RowPartition p = mean_density_split(a);
  const hh::CsrPattern pattern =
      hh::CsrPattern::of(hh::gustavson_spgemm_parallel(a, a, pool));
  for (auto _ : state) {
    hh::CsrMatrix c(a.rows, a.cols);
    hh::numeric_in_halves(a, a, p.is_high, p.is_high, pattern, c, pool);
    benchmark::DoNotOptimize(c);
  }
  state.SetItemsProcessed(state.iterations() * hh::total_flops(a, a));
}
BENCHMARK(BM_NumericInHalvesKnownPattern);

// The run merge over one run per row (a full product's runs).
void BM_RunMerge(benchmark::State& state) {
  const hh::CsrMatrix a = bench_matrix(4000);
  hh::ThreadPool pool(0);
  const hh::CsrMatrix runs = hh::gustavson_spgemm_parallel(a, a, pool);
  const hh::CsrMatrix* parts[] = {&runs};
  for (auto _ : state) {
    benchmark::DoNotOptimize(hh::merge_row_runs(parts, pool, nullptr));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(runs.nnz()));
}
BENCHMARK(BM_RunMerge);

// The Phase IV shape: the same product split by the B-row mask into two
// partial products (A's entries on each B side), so each output row
// arrives as up to two column-sorted runs in separate stores.
void BM_RunMergeHhCpu(benchmark::State& state) {
  const hh::CsrMatrix a = bench_matrix(4000);
  hh::ThreadPool pool(0);
  const std::vector<std::uint8_t>& b_high = mean_density_split(a).is_high;
  const auto store = [&](bool high) {
    return hh::gustavson_spgemm_parallel(
        hh::mask_entries(a, [&](hh::index_t, hh::index_t j) {
          return (b_high[j] != 0) == high;
        }),
        a, pool);
  };
  const hh::CsrMatrix high = store(true);
  const hh::CsrMatrix low = store(false);
  const hh::CsrMatrix* parts[] = {&high, &low};
  for (auto _ : state) {
    benchmark::DoNotOptimize(hh::merge_row_runs(parts, pool, nullptr));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(high.nnz() + low.nnz()));
}
BENCHMARK(BM_RunMergeHhCpu);

void BM_PowerLawGenerator(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        bench_matrix(static_cast<hh::index_t>(state.range(0))));
  }
}
BENCHMARK(BM_PowerLawGenerator)->Arg(10000);

}  // namespace

BENCHMARK_MAIN();
