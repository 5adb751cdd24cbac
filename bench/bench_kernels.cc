// Real wall-clock microbenchmarks of the host kernels (google-benchmark):
// the SpGEMM accumulator variants, the Phase IV tuple merge, and the
// generator. These measure the actual C++ implementations on the build
// machine — unlike the figure benches, nothing here is simulated.
#include <benchmark/benchmark.h>

#include "gen/powerlaw_gen.hpp"
#include "primitives/tuple_merge.hpp"
#include "sparse/partition.hpp"
#include "spgemm/gustavson.hpp"
#include "spgemm/hash_spgemm.hpp"
#include "spgemm/heap_spgemm.hpp"
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

void BM_HashSpgemm(benchmark::State& state) {
  const hh::CsrMatrix a = bench_matrix(static_cast<hh::index_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(hh::hash_spgemm(a, a));
  }
  state.SetItemsProcessed(state.iterations() * hh::total_flops(a, a));
}
BENCHMARK(BM_HashSpgemm)->Arg(2000)->Arg(8000);

void BM_HeapSpgemm(benchmark::State& state) {
  const hh::CsrMatrix a = bench_matrix(static_cast<hh::index_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(hh::heap_spgemm(a, a));
  }
  state.SetItemsProcessed(state.iterations() * hh::total_flops(a, a));
}
BENCHMARK(BM_HeapSpgemm)->Arg(2000)->Arg(8000);

void BM_RowColumnSpgemm(benchmark::State& state) {
  const hh::CsrMatrix a = bench_matrix(static_cast<hh::index_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(hh::row_column_spgemm(a, a));
  }
  state.SetItemsProcessed(state.iterations() * hh::total_flops(a, a));
}
BENCHMARK(BM_RowColumnSpgemm)->Arg(2000);

void BM_TupleMerge(benchmark::State& state) {
  const hh::CsrMatrix a = bench_matrix(4000);
  hh::ThreadPool pool(0);
  std::vector<hh::index_t> rows(static_cast<std::size_t>(a.rows));
  for (hh::index_t r = 0; r < a.rows; ++r) rows[r] = r;
  const hh::CooMatrix coo =
      hh::partial_product_tuples(a, a, rows, {}, true, pool, nullptr);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hh::merged_coo_to_csr(coo, pool, nullptr));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(coo.nnz()));
}
BENCHMARK(BM_TupleMerge);

// The Phase IV shape: the same product split by a B-row mask (rows at or
// above the mean density are high) into two partial products, so each
// output row arrives as up to two column-sorted runs in separate buffers.
void BM_TupleMergeHhCpu(benchmark::State& state) {
  const hh::CsrMatrix a = bench_matrix(4000);
  hh::ThreadPool pool(0);
  std::vector<hh::index_t> rows(static_cast<std::size_t>(a.rows));
  for (hh::index_t r = 0; r < a.rows; ++r) rows[r] = r;
  const hh::RowPartition b = hh::classify_rows(a, a.nnz() / a.rows);
  const hh::CooMatrix high =
      hh::partial_product_tuples(a, a, rows, b.is_high, true, pool, nullptr);
  const hh::CooMatrix low =
      hh::partial_product_tuples(a, a, rows, b.is_high, false, pool, nullptr);
  const hh::CooMatrix* parts[] = {&high, &low};
  for (auto _ : state) {
    benchmark::DoNotOptimize(hh::merged_coo_to_csr(parts, pool, nullptr));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(high.nnz() + low.nnz()));
}
BENCHMARK(BM_TupleMergeHhCpu);

void BM_PowerLawGenerator(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        bench_matrix(static_cast<hh::index_t>(state.range(0))));
  }
}
BENCHMARK(BM_PowerLawGenerator)->Arg(10000);

}  // namespace

BENCHMARK_MAIN();
