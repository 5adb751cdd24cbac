// HH-CPU's partial products and their pricing: the decomposition identity
// (the four partial products merge to the full product), HH-CPU's numeric
// pass, the statistics the device models consume, and the symbolic passes
// that price the products without storing them. The reference for every
// per-row stat is a stored product's own: product_row_stats over
// Gustavson's product of A with only the product's entries kept.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "core/threshold.hpp"
#include "gen/datasets.hpp"
#include "gen/powerlaw_gen.hpp"
#include "primitives/tuple_merge.hpp"
#include "sparse/convert.hpp"
#include "sparse/partition.hpp"
#include "spgemm/gustavson.hpp"
#include "spgemm/spgemm.hpp"
#include "spgemm/symbolic.hpp"
#include "test_util.hpp"
#include "util/check.hpp"

namespace hh {
namespace {

using test::stat_fields;
using test::stored_row_stats;
using test::sum_stats;

std::vector<index_t> all_rows(index_t n) {
  std::vector<index_t> rows(static_cast<std::size_t>(n));
  std::iota(rows.begin(), rows.end(), index_t{0});
  return rows;
}

// A's entries a(i, j) with b_side[j] == v: the operand whose product with B
// is A × (B's side v).
CsrMatrix on_b_side(const CsrMatrix& a, const std::vector<std::uint8_t>& b_side,
                    bool v) {
  return mask_entries(
      a, [&](index_t, index_t j) { return (b_side[j] != 0) == v; });
}

// Each row of a stored product is priced from its A entries and its size in
// C alone: the rows sum to the full product's counts.
TEST(ProductRowStats, SumToTheFullProduct) {
  const CsrMatrix a = test::random_csr(25, 20, 0.25, 301);
  const CsrMatrix b = test::random_csr(20, 22, 0.3, 302);
  ThreadPool pool(2);
  const CsrMatrix c = gustavson_spgemm_parallel(a, b, pool);
  const std::vector<ProductStats> rows = product_row_stats(a, b, c);
  ASSERT_EQ(rows.size(), static_cast<std::size_t>(a.rows));
  const std::vector<offset_t> flops = row_flops(a, b);
  for (index_t i = 0; i < a.rows; ++i) {
    const ProductStats& s = rows[static_cast<std::size_t>(i)];
    EXPECT_EQ(s.rows, 1) << "row " << i;
    EXPECT_EQ(s.flops, flops[static_cast<std::size_t>(i)]) << "row " << i;
    EXPECT_EQ(s.tuples, c.row_nnz(i)) << "row " << i;
  }
  const ProductStats stats = sum_stats(rows);
  EXPECT_EQ(stats.flops, total_flops(a, b));
  EXPECT_EQ(stats.rows, a.rows);
  EXPECT_EQ(stats.a_nnz, a.nnz());
  EXPECT_EQ(stats.tuples, c.nnz());
  const CsrMatrix short_c(a.rows - 1, b.cols);
  EXPECT_THROW(product_row_stats(a, b, short_c), CheckError);
}

class DecompositionTest : public testing::TestWithParam<offset_t> {};

TEST_P(DecompositionTest, FourPartialProductsMergeToFullProduct) {
  // The algebraic core of Algorithm HH-CPU (paper Fig. 3): C is the sum of
  // A_H×B_H + A_L×B_L + A_H×B_L + A_L×B_H, for any threshold.
  const offset_t t = GetParam();
  const CsrMatrix a = test::random_csr(30, 30, 0.2, 401);
  ThreadPool pool(2);
  const RowPartition p = classify_rows(a, t);

  // Each A row has one run per B side, so the four stores merge by row.
  std::vector<CsrMatrix> stores;
  for (const bool a_high : {true, false}) {
    for (const bool b_high : {true, false}) {
      stores.push_back(gustavson_spgemm_parallel(
          mask_entries(a,
                       [&](index_t i, index_t j) {
                         return (p.is_high[i] != 0) == a_high &&
                                (p.is_high[j] != 0) == b_high;
                       }),
          a, pool));
    }
  }
  const CsrMatrix* parts[] = {&stores[0], &stores[1], &stores[2], &stores[3]};
  const CsrMatrix got = merge_row_runs(parts, pool);
  const CsrMatrix want = gustavson_spgemm(a, a);
  std::string why;
  EXPECT_TRUE(approx_equal(want, got, 1e-9, &why))
      << "t=" << t << ": " << why;
}

// HH-CPU's numeric pass writes, bit for bit, what the Phase IV merge makes
// of each row's Phase II run and its queue run, with or without a pool of
// SPAs and at any pool size.
TEST_P(DecompositionTest, NumericInHalvesEqualsMergedRuns) {
  const offset_t t = GetParam();
  const CsrMatrix a = test::random_csr(120, 120, 0.08, 402);
  ThreadPool pool1(1), pool4(4);
  const RowPartition p = classify_rows(a, t);
  const auto store = [&](auto keep) {
    return gustavson_spgemm_parallel(mask_entries(a, keep), a, pool4);
  };
  const CsrMatrix hh =
      store([&](index_t i, index_t j) { return p.is_high[i] && p.is_high[j]; });
  const CsrMatrix ll = store(
      [&](index_t i, index_t j) { return !p.is_high[i] && !p.is_high[j]; });
  const CsrMatrix queue = store(
      [&](index_t i, index_t j) { return p.is_high[i] != p.is_high[j]; });
  const CsrMatrix* parts[] = {&hh, &ll, &queue};
  const CsrMatrix want = merge_row_runs(parts, pool4);
  WorkspacePool spas;
  for (ThreadPool* pool : {&pool1, &pool4}) {
    for (WorkspacePool* ws : {static_cast<WorkspacePool*>(nullptr), &spas}) {
      CsrMatrix c(a.rows, a.cols);
      row_costs_at(a, a, std::max<offset_t>(t, 1), *pool,
                   std::span(c.indptr).subspan(1));
      numeric_in_halves(a, a, p.is_high, p.is_high, c, *pool, ws);
      test::expect_same_bits(want, c,
                             "t=" + std::to_string(t) + " pool " +
                                 std::to_string(pool->size()) +
                                 (ws != nullptr ? " pooled" : ""));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Thresholds, DecompositionTest,
                         testing::Values(0, 1, 3, 5, 8, 1000));

// The numeric pass writes each row into the slot the symbolic pass sized,
// and throws when a row's columns do not fill it.
TEST(PartialProduct, NumericInHalvesChecksRowSizes) {
  const CsrMatrix a = test::random_csr(30, 30, 0.2, 403);
  const RowPartition p = classify_rows(a, 5);
  ThreadPool pool(2);
  CsrMatrix c(a.rows, a.cols);
  const std::vector<offset_t> sizes = exact_row_nnz(a, a);
  std::copy(sizes.begin(), sizes.end(), c.indptr.begin() + 1);
  c.indptr[1] += 1;  // row 0 sized one column too wide
  EXPECT_THROW(numeric_in_halves(a, a, p.is_high, p.is_high, c, pool),
               CheckError);
}

TEST(PartialProduct, StatsSplitConsistent) {
  const CsrMatrix a = test::random_csr(40, 40, 0.15, 402);
  ThreadPool pool(2);
  const ProductStats stats = sum_stats(stored_row_stats(a, a, pool));
  EXPECT_EQ(stats.flops_shared + stats.flops_global, stats.flops);
  EXPECT_LE(stats.max_row_flops, stats.flops);
  EXPECT_GE(stats.warp_alu, stats.flops / 32);
  EXPECT_GE(stats.b_read_bytes, 12 * stats.flops);
}

TEST(PartialProduct, MaskedStatsAddUpToUnmasked) {
  const CsrMatrix a = test::random_csr(30, 30, 0.2, 403);
  ThreadPool pool(2);
  const RowPartition p = classify_rows(a, 5);
  const ProductStats hi =
      sum_stats(stored_row_stats(on_b_side(a, p.is_high, true), a, pool));
  const ProductStats lo =
      sum_stats(stored_row_stats(on_b_side(a, p.is_high, false), a, pool));
  const ProductStats full = sum_stats(stored_row_stats(a, a, pool));
  EXPECT_EQ(hi.flops + lo.flops, full.flops);
  EXPECT_EQ(hi.a_nnz + lo.a_nnz, full.a_nnz);
}

TEST(PartialProduct, StoredProductDeterministicAcrossPoolSizes) {
  // Several of Gustavson's row blocks, so the workers share the rows.
  const CsrMatrix a = test::random_csr(400, 400, 0.02, 404);
  ThreadPool pool1(1), pool4(4);
  const CsrMatrix x = gustavson_spgemm_parallel(a, a, pool1);
  const CsrMatrix y = gustavson_spgemm_parallel(a, a, pool4);
  test::expect_same_bits(x, y);
  const std::vector<ProductStats> sx = product_row_stats(a, a, x);
  const std::vector<ProductStats> sy = product_row_stats(a, a, y);
  for (std::size_t i = 0; i < sx.size(); ++i) {
    EXPECT_EQ(stat_fields(sx[i]), stat_fields(sy[i])) << "row " << i;
  }
}

TEST(PartialProduct, EstimateIsExactOnFlopsAndUpperBoundOnTuples) {
  const CsrMatrix a = test::random_csr(30, 30, 0.25, 405);
  ThreadPool pool(2);
  const ProductStats actual = sum_stats(stored_row_stats(a, a, pool));
  const ProductStats est =
      estimate_partial_product(a, a, all_rows(a.rows), {}, true);
  EXPECT_EQ(est.flops, actual.flops);
  EXPECT_EQ(est.a_nnz, actual.a_nnz);
  EXPECT_EQ(est.warp_alu, actual.warp_alu);
  EXPECT_EQ(est.b_read_bytes, actual.b_read_bytes);
  EXPECT_EQ(est.max_row_flops, actual.max_row_flops);
  EXPECT_GE(est.tuples, actual.tuples);
}

// The one-point pass is the stored products' accounting without the
// products: each row's stats under either mask value, the distinct output
// count, and each row's size in C.
TEST(MaskedRowCosts, EqualKernelStatsRowByRow) {
  const CsrMatrix a = test::random_csr(40, 30, 0.2, 408);
  const CsrMatrix b = test::random_csr(30, 45, 0.25, 409);
  const RowPartition p = classify_rows(b, 8);
  const std::int64_t original = shared_accum_cap();
  set_shared_accum_cap(6);  // rows on both sides of the shared/global split
  ThreadPool pool1(1), pool4(4);
  std::vector<offset_t> row_nnz(static_cast<std::size_t>(a.rows), -1);
  const MaskedRowCosts costs = row_costs_at(a, b, 8, pool4, row_nnz);
  const MaskedRowCosts costs1 = row_costs_at(a, b, 8, pool1);
  EXPECT_EQ(row_nnz, exact_row_nnz(a, b));
  for (const bool v : {false, true}) {
    const CsrMatrix a_v = on_b_side(a, p.is_high, v);
    const std::vector<ProductStats> table = stored_row_stats(a_v, b, pool1);
    ProductStats sum;
    for (index_t i = 0; i < a.rows; ++i) {
      const ProductStats& want = table[static_cast<std::size_t>(i)];
      const ProductStats& got = costs.by_mask[v][static_cast<std::size_t>(i)];
      EXPECT_EQ(got.rows, want.rows) << "row " << i;
      EXPECT_EQ(got.a_nnz, want.a_nnz) << "row " << i;
      EXPECT_EQ(got.flops, want.flops) << "row " << i;
      EXPECT_EQ(got.tuples, want.tuples) << "row " << i;
      EXPECT_EQ(got.max_row_flops, want.max_row_flops) << "row " << i;
      EXPECT_EQ(got.warp_alu, want.warp_alu) << "row " << i;
      EXPECT_EQ(got.flops_shared, want.flops_shared) << "row " << i;
      EXPECT_EQ(got.flops_global, want.flops_global) << "row " << i;
      EXPECT_EQ(got.b_read_bytes, want.b_read_bytes) << "row " << i;
      EXPECT_EQ(costs1.by_mask[v][static_cast<std::size_t>(i)].tuples,
                got.tuples);
      sum.accumulate(got);
    }
    const ProductStats all = sum_stats(stored_row_stats(a_v, b, pool4));
    EXPECT_EQ(sum.flops_global, all.flops_global);
    EXPECT_EQ(sum.max_row_flops, all.max_row_flops);
  }
  set_shared_accum_cap(original);
  std::int64_t out_nnz = 0;
  for (const offset_t n : exact_row_nnz(a, b)) out_nnz += n;
  EXPECT_EQ(costs.output_nnz, out_nnz);
  EXPECT_EQ(costs1.output_nnz, out_nnz);
  EXPECT_THROW(row_costs_on_grid(a, b, {}, pool1,
                                 [](std::size_t, const MaskedRowCosts&) {}),
               CheckError);
}

// Every point of a multi-point grid, over more rows than one block of the
// pass: each row's costs equal the stored products' own per-row stats
// there.
TEST(MaskedRowCosts, EqualKernelStatsAtEveryGridPoint) {
  PowerLawGenConfig cfg;
  cfg.rows = 2500;
  cfg.alpha = 2.2;
  cfg.target_nnz = 12000;
  cfg.seed = 415;
  const CsrMatrix a = generate_power_law_matrix(cfg);
  const offset_t grid[] = {1, 2, 3, 5, 8, 13, 21, 34};
  const std::int64_t original = shared_accum_cap();
  set_shared_accum_cap(6);
  ThreadPool pool(4);
  std::size_t visited = 0;
  row_costs_on_grid(a, a, grid, pool, [&](std::size_t g,
                                          const MaskedRowCosts& costs) {
    EXPECT_EQ(g, visited++);
    const RowPartition p = classify_rows(a, grid[g]);
    for (const bool v : {false, true}) {
      const std::vector<ProductStats> want =
          stored_row_stats(on_b_side(a, p.is_high, v), a, pool);
      for (index_t i = 0; i < a.rows; ++i) {
        const ProductStats& got = costs.by_mask[v][static_cast<std::size_t>(i)];
        EXPECT_EQ(stat_fields(got),
                  stat_fields(want[static_cast<std::size_t>(i)]))
            << "t=" << grid[g] << " side=" << v << " row " << i;
      }
    }
  });
  EXPECT_EQ(visited, std::size(grid));
  set_shared_accum_cap(original);
}

// The benchmark's three staged run stores (A_H×B_H, A_L×B_L and the queue,
// each row against its other B side), priced from their own row sizes,
// equal the symbolic pass row by row on every row each store lists, at the
// analytic t and at both ends of the threshold grid; and the full stored
// product sums to the estimate's exact fields, with C's nnz as its tuples.
TEST(StoredProducts, PricedAsTheSymbolicPassOnTableOneAnalogues) {
  // A scaled platform shrinks the shared-accumulator cap, so rows land on
  // both sides of the shared/global flops split.
  constexpr double kScale = 0.04;
  const HeteroPlatform plat = make_scaled_platform(kScale);
  ThreadPool pool(2);
  for (const DatasetSpec& spec : table1_datasets()) {
    const CsrMatrix a = make_dataset(spec, kScale);
    const std::vector<offset_t> grid = threshold_grid(a, a);
    const offset_t analytic = pick_threshold_analytic(a, a, plat).t;
    for (const offset_t t : {analytic, grid.front(), grid.back()}) {
      const RowPartition p = classify_rows(a, t);
      const std::vector<std::uint8_t>& high = p.is_high;
      const MaskedRowCosts costs = row_costs_at(a, a, t, pool);
      const auto expect_store = [&](const char* store, auto keep,
                                    auto listed, auto side) {
        const std::vector<ProductStats> table =
            stored_row_stats(mask_entries(a, keep), a, pool);
        for (index_t i = 0; i < a.rows; ++i) {
          if (!listed(i)) continue;
          const auto& by_side = costs.by_mask[side(i) ? 1 : 0];
          EXPECT_EQ(stat_fields(table[static_cast<std::size_t>(i)]),
                    stat_fields(by_side[static_cast<std::size_t>(i)]))
              << spec.name << " t=" << t << " " << store << " row " << i;
        }
      };
      const auto on_h = [&](index_t i) { return high[i] != 0; };
      const auto on_l = [&](index_t i) { return high[i] == 0; };
      expect_store(
          "hh", [&](index_t i, index_t j) { return high[i] && high[j]; },
          on_h, [](index_t) { return true; });
      expect_store(
          "ll", [&](index_t i, index_t j) { return !high[i] && !high[j]; },
          on_l, [](index_t) { return false; });
      expect_store(
          "queue", [&](index_t i, index_t j) { return high[i] != high[j]; },
          [](index_t) { return true; }, on_l);
    }
    const CsrMatrix c = gustavson_spgemm_parallel(a, a, pool);
    const ProductStats got = sum_stats(product_row_stats(a, a, c));
    const ProductStats est =
        estimate_partial_product(a, a, all_rows(a.rows), {}, true);
    EXPECT_EQ(got.rows, est.rows) << spec.name;
    EXPECT_EQ(got.a_nnz, est.a_nnz) << spec.name;
    EXPECT_EQ(got.flops, est.flops) << spec.name;
    EXPECT_EQ(got.max_row_flops, est.max_row_flops) << spec.name;
    EXPECT_EQ(got.warp_alu, est.warp_alu) << spec.name;
    EXPECT_EQ(got.b_read_bytes, est.b_read_bytes) << spec.name;
    EXPECT_EQ(got.tuples, c.nnz()) << spec.name;
  }
  set_shared_accum_cap(kSharedAccumCap);
}

TEST(PartialProduct, SharedAccumCapKnob) {
  const std::int64_t original = shared_accum_cap();
  set_shared_accum_cap(1);
  EXPECT_EQ(shared_accum_cap(), 1);
  const CsrMatrix a = test::random_csr(20, 20, 0.4, 407);
  ThreadPool pool(2);
  const ProductStats stats = sum_stats(stored_row_stats(a, a, pool));
  // With cap 1 nearly everything lands on the global path.
  EXPECT_GT(stats.flops_global, stats.flops_shared);
  set_shared_accum_cap(original);
  EXPECT_THROW(set_shared_accum_cap(0), CheckError);
}

}  // namespace
}  // namespace hh
