// Real wall-clock microbenchmarks of the host kernels (google-benchmark):
// the two full-product kernels multiply() dispatches (Gustavson's SPA and
// the row-column formulation of §II-A), the masked run kernel of Phases
// II-III, the Phase IV run merge, and the power-law generator. These measure
// the actual C++ implementations on the build machine — unlike the figure
// benches, nothing here is simulated.
#include <benchmark/benchmark.h>

#include <vector>

#include "gen/powerlaw_gen.hpp"
#include "primitives/tuple_merge.hpp"
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

void BM_GustavsonSpgemm(benchmark::State& state) {
  const hh::CsrMatrix a = bench_matrix(static_cast<hh::index_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(hh::gustavson_spgemm(a, a));
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

std::vector<hh::index_t> all_rows(const hh::CsrMatrix& a) {
  std::vector<hh::index_t> rows(static_cast<std::size_t>(a.rows));
  for (hh::index_t r = 0; r < a.rows; ++r) rows[r] = r;
  return rows;
}

// The masked run kernel on the Phase II/III shape: every A row against the
// B rows at or above the mean density, then against the rest.
void BM_PartialProductRuns(benchmark::State& state) {
  const hh::CsrMatrix a = bench_matrix(4000);
  hh::ThreadPool pool(0);
  const std::vector<hh::index_t> rows = all_rows(a);
  const hh::RowPartition b = hh::classify_rows(a, a.nnz() / a.rows);
  for (auto _ : state) {
    for (const bool high : {true, false}) {
      benchmark::DoNotOptimize(hh::partial_product_runs(
          a, a, rows, b.is_high, high, pool, nullptr));
    }
  }
  state.SetItemsProcessed(state.iterations() * hh::total_flops(a, a));
}
BENCHMARK(BM_PartialProductRuns);

// The run merge over one run per row (a full product's runs).
void BM_RunMerge(benchmark::State& state) {
  const hh::CsrMatrix a = bench_matrix(4000);
  hh::ThreadPool pool(0);
  const hh::CsrMatrix runs =
      hh::partial_product_runs(a, a, all_rows(a), {}, true, pool, nullptr);
  const hh::CsrMatrix* parts[] = {&runs};
  for (auto _ : state) {
    benchmark::DoNotOptimize(hh::merge_row_runs(parts, pool, nullptr));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(runs.nnz()));
}
BENCHMARK(BM_RunMerge);

// The Phase IV shape: the same product split by a B-row mask (rows at or
// above the mean density are high) into two partial products, so each
// output row arrives as up to two column-sorted runs in separate stores.
void BM_RunMergeHhCpu(benchmark::State& state) {
  const hh::CsrMatrix a = bench_matrix(4000);
  hh::ThreadPool pool(0);
  const std::vector<hh::index_t> rows = all_rows(a);
  const hh::RowPartition b = hh::classify_rows(a, a.nnz() / a.rows);
  const hh::CsrMatrix high =
      hh::partial_product_runs(a, a, rows, b.is_high, true, pool, nullptr);
  const hh::CsrMatrix low =
      hh::partial_product_runs(a, a, rows, b.is_high, false, pool, nullptr);
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
