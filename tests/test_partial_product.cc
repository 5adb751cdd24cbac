// The masked partial-product kernel is the numeric heart of HH-CPU: these
// tests pin down the decomposition identity (the four partial products merge
// to the full product), the run store it writes (one sorted run per listed
// row, in that row's slot), its row checks, and the statistics the device
// models consume.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <span>
#include <vector>

#include "gen/powerlaw_gen.hpp"
#include "primitives/tuple_merge.hpp"
#include "sparse/partition.hpp"
#include "spgemm/gustavson.hpp"
#include "spgemm/spgemm.hpp"
#include "spgemm/symbolic.hpp"
#include "test_util.hpp"
#include "util/check.hpp"

namespace hh {
namespace {

std::vector<index_t> all_rows(index_t n) {
  std::vector<index_t> rows(static_cast<std::size_t>(n));
  std::iota(rows.begin(), rows.end(), index_t{0});
  return rows;
}

TEST(PartialProduct, UnmaskedEqualsFullProduct) {
  const CsrMatrix a = test::random_csr(25, 20, 0.25, 301);
  const CsrMatrix b = test::random_csr(20, 22, 0.3, 302);
  ThreadPool pool(2);
  ProductStats stats;
  const CsrMatrix runs =
      partial_product_runs(a, b, all_rows(a.rows), {}, true, pool, &stats);
  runs.validate(true);
  const CsrMatrix want = gustavson_spgemm(a, b);
  std::string why;
  EXPECT_TRUE(approx_equal(want, runs, 1e-9, &why)) << why;
  EXPECT_EQ(stats.flops, total_flops(a, b));
  EXPECT_EQ(stats.rows, a.rows);
  EXPECT_EQ(stats.a_nnz, a.nnz());
  EXPECT_EQ(stats.tuples, runs.nnz());
}

// Each listed row's run sits in its own slot whatever the list order; rows
// the list leaves out stay empty.
TEST(PartialProduct, RunsFillOnlyTheListedRowSlots) {
  const CsrMatrix a = test::random_csr(30, 20, 0.3, 313);
  const CsrMatrix b = test::random_csr(20, 25, 0.3, 314);
  const CsrMatrix full = gustavson_spgemm(a, b);
  const std::vector<index_t> rows = {17, 3, 29, 0, 8};
  ThreadPool pool(3);
  const CsrMatrix runs = partial_product_runs(a, b, rows, {}, true, pool);
  runs.validate(true);
  ASSERT_EQ(runs.rows, a.rows);
  ASSERT_EQ(runs.cols, b.cols);
  for (index_t i = 0; i < a.rows; ++i) {
    const bool listed = std::find(rows.begin(), rows.end(), i) != rows.end();
    if (!listed) {
      EXPECT_EQ(runs.row_nnz(i), 0) << "row " << i;
      continue;
    }
    ASSERT_EQ(runs.row_nnz(i), full.row_nnz(i)) << "row " << i;
    for (offset_t k = 0; k < runs.row_nnz(i); ++k) {
      EXPECT_EQ(runs.row_indices(i)[k], full.row_indices(i)[k]);
      EXPECT_DOUBLE_EQ(runs.row_values(i)[k], full.row_values(i)[k]);
    }
  }
}

// Parts with different masks share one store: each part's rows get their
// own view of B, and the result equals one call per part.
TEST(PartialProduct, PartsShareOneStore) {
  const CsrMatrix a = test::random_csr(400, 400, 0.02, 315);
  const RowPartition p = classify_rows(a, 9);
  ASSERT_GT(p.high_count(), 0);
  ASSERT_GT(p.low_count(), 0);
  ThreadPool pool(4);
  const MaskedRows parts[] = {{p.low_rows, p.is_high, true},
                              {p.high_rows, p.is_high, false}};
  std::vector<ProductStats> per_row(static_cast<std::size_t>(a.rows));
  ProductStats total;
  const CsrMatrix both =
      partial_product_runs(a, a, parts, pool, &total, nullptr, per_row);
  const CsrMatrix lh =
      partial_product_runs(a, a, p.low_rows, p.is_high, true, pool);
  const CsrMatrix hl =
      partial_product_runs(a, a, p.high_rows, p.is_high, false, pool);
  for (index_t i = 0; i < a.rows; ++i) {
    const CsrMatrix& one = p.is_high[i] != 0 ? hl : lh;
    ASSERT_EQ(both.row_nnz(i), one.row_nnz(i)) << "row " << i;
    for (offset_t k = 0; k < one.row_nnz(i); ++k) {
      EXPECT_EQ(both.row_indices(i)[k], one.row_indices(i)[k]);
      EXPECT_EQ(both.row_values(i)[k], one.row_values(i)[k]);
    }
  }
  EXPECT_EQ(total.tuples, both.nnz());
  EXPECT_EQ(total.rows, a.rows);
  for (index_t i = 0; i < a.rows; ++i) {
    EXPECT_EQ(per_row[static_cast<std::size_t>(i)].tuples, both.row_nnz(i))
        << "row " << i;
  }
}

TEST(PartialProduct, RejectsOutOfRangeAndRepeatedRows) {
  const CsrMatrix a = test::random_csr(12, 12, 0.3, 316);
  ThreadPool pool(2);
  const std::vector<index_t> valid = {11, 0, 4};
  EXPECT_NO_THROW(partial_product_runs(a, a, valid, {}, true, pool));
  for (const std::vector<index_t>& rows :
       {std::vector<index_t>{0, 12}, std::vector<index_t>{-1, 3},
        std::vector<index_t>{4, 7, 4}}) {
    EXPECT_THROW(partial_product_runs(a, a, rows, {}, true, pool), CheckError)
        << rows.back();
  }
  // A row listed once in each of two parts is listed twice.
  const std::vector<index_t> first = {1, 5}, second = {6, 5};
  const MaskedRows parts[] = {{first, {}, true}, {second, {}, true}};
  EXPECT_THROW(partial_product_runs(a, a, parts, pool), CheckError);
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
      const auto& rows = a_high ? p.high_rows : p.low_rows;
      stores.push_back(
          partial_product_runs(a, a, rows, p.is_high, b_high, pool, nullptr));
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
  const CsrMatrix hh =
      partial_product_runs(a, a, p.high_rows, p.is_high, true, pool4);
  const CsrMatrix ll =
      partial_product_runs(a, a, p.low_rows, p.is_high, false, pool4);
  const MaskedRows cross[] = {{p.low_rows, p.is_high, true},
                              {p.high_rows, p.is_high, false}};
  const CsrMatrix queue = partial_product_runs(a, a, cross, pool4);
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
  ProductStats stats;
  partial_product_runs(a, a, all_rows(a.rows), {}, true, pool, &stats);
  EXPECT_EQ(stats.flops_shared + stats.flops_global, stats.flops);
  EXPECT_LE(stats.max_row_flops, stats.flops);
  EXPECT_GE(stats.warp_alu, stats.flops / 32);
  EXPECT_GE(stats.b_read_bytes, 12 * stats.flops);
}

TEST(PartialProduct, MaskedStatsAddUpToUnmasked) {
  const CsrMatrix a = test::random_csr(30, 30, 0.2, 403);
  ThreadPool pool(2);
  const RowPartition p = classify_rows(a, 5);
  ProductStats hi, lo, full;
  partial_product_runs(a, a, all_rows(a.rows), p.is_high, true, pool, &hi);
  partial_product_runs(a, a, all_rows(a.rows), p.is_high, false, pool, &lo);
  partial_product_runs(a, a, all_rows(a.rows), {}, true, pool, &full);
  EXPECT_EQ(hi.flops + lo.flops, full.flops);
  EXPECT_EQ(hi.a_nnz + lo.a_nnz, full.a_nnz);
}

TEST(PartialProduct, DeterministicAcrossPoolSizes) {
  // Several of the kernel's row blocks, so the workers share the rows.
  const CsrMatrix a = test::random_csr(400, 400, 0.02, 404);
  ThreadPool pool1(1), pool4(4);
  const CsrMatrix x =
      partial_product_runs(a, a, all_rows(a.rows), {}, true, pool1, nullptr);
  const CsrMatrix y =
      partial_product_runs(a, a, all_rows(a.rows), {}, true, pool4, nullptr);
  EXPECT_EQ(x.indptr, y.indptr);
  EXPECT_EQ(x.indices, y.indices);
  EXPECT_EQ(x.values, y.values);
}

TEST(PartialProduct, EstimateIsExactOnFlopsAndUpperBoundOnTuples) {
  const CsrMatrix a = test::random_csr(30, 30, 0.25, 405);
  ThreadPool pool(2);
  ProductStats actual;
  partial_product_runs(a, a, all_rows(a.rows), {}, true, pool, &actual);
  const ProductStats est =
      estimate_partial_product(a, a, all_rows(a.rows), {}, true);
  EXPECT_EQ(est.flops, actual.flops);
  EXPECT_EQ(est.a_nnz, actual.a_nnz);
  EXPECT_EQ(est.warp_alu, actual.warp_alu);
  EXPECT_EQ(est.b_read_bytes, actual.b_read_bytes);
  EXPECT_EQ(est.max_row_flops, actual.max_row_flops);
  EXPECT_GE(est.tuples, actual.tuples);
}

TEST(PartialProduct, EmptyRowList) {
  const CsrMatrix a = test::random_csr(10, 10, 0.3, 406);
  ThreadPool pool(2);
  ProductStats stats;
  const CsrMatrix runs =
      partial_product_runs(a, a, {}, {}, true, pool, &stats);
  EXPECT_EQ(runs.rows, a.rows);
  EXPECT_EQ(runs.nnz(), 0);
  EXPECT_EQ(stats.rows, 0);
  EXPECT_EQ(stats.flops, 0);
}

// The one-point pass is the kernel's accounting without the kernel: each
// row's stats under either mask value, the distinct output count, and each
// row's size in C.
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
    ProductStats sum;
    for (index_t i = 0; i < a.rows; ++i) {
      const index_t row[1] = {i};
      ProductStats want;
      partial_product_runs(a, b, row, p.is_high, v, pool1, &want);
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
    ProductStats all;
    partial_product_runs(a, b, all_rows(a.rows), p.is_high, v, pool4, &all);
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
// pass: each row's costs equal the kernel's own per-row stats there.
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
  const std::vector<index_t> rows = all_rows(a.rows);
  std::size_t visited = 0;
  row_costs_on_grid(a, a, grid, pool, [&](std::size_t g,
                                          const MaskedRowCosts& costs) {
    EXPECT_EQ(g, visited++);
    const RowPartition p = classify_rows(a, grid[g]);
    for (const bool v : {false, true}) {
      std::vector<ProductStats> want(rows.size());
      partial_product_runs(a, a, rows, p.is_high, v, pool, nullptr, nullptr,
                             want);
      for (index_t i = 0; i < a.rows; ++i) {
        const ProductStats& got = costs.by_mask[v][static_cast<std::size_t>(i)];
        const ProductStats& w = want[static_cast<std::size_t>(i)];
        const auto fields = [](const ProductStats& s) {
          return std::vector<std::int64_t>{
              s.rows,     s.a_nnz,        s.flops,
              s.tuples,   s.max_row_flops, s.warp_alu,
              s.flops_shared, s.flops_global, s.b_read_bytes};
        };
        EXPECT_EQ(fields(got), fields(w))
            << "t=" << grid[g] << " side=" << v << " row " << i;
      }
    }
  });
  EXPECT_EQ(visited, std::size(grid));
  set_shared_accum_cap(original);
}

std::vector<std::int64_t> stat_fields(const ProductStats& s) {
  return {s.rows,         s.a_nnz,        s.flops,
          s.tuples,       s.max_row_flops, s.warp_alu,
          s.flops_shared, s.flops_global, s.b_read_bytes};
}

// row_stats is filled by the pool workers, one disjoint slot per row and
// indexed by A row: each slot equals a one-row call, whatever the pool size
// and row order, over several of the kernel's row blocks.
TEST(PartialProduct, RowStatsEqualOneRowCalls) {
  const CsrMatrix a = test::random_csr(300, 30, 0.2, 411);
  const CsrMatrix b = test::random_csr(30, 45, 0.25, 412);
  const RowPartition p = classify_rows(b, 8);
  std::vector<index_t> rows = all_rows(a.rows);
  std::reverse(rows.begin(), rows.end());
  ThreadPool pool1(1), pool4(4);
  for (const bool v : {false, true}) {
    std::vector<ProductStats> per_row(rows.size());
    ProductStats total;
    const CsrMatrix runs = partial_product_runs(a, b, rows, p.is_high, v,
                                                pool4, &total, nullptr, per_row);
    ProductStats sum;
    for (const index_t i : rows) {
      ProductStats want;
      partial_product_runs(a, b, std::span(&i, 1), p.is_high, v, pool1,
                           &want);
      const ProductStats& got = per_row[static_cast<std::size_t>(i)];
      EXPECT_EQ(stat_fields(got), stat_fields(want)) << "row " << i;
      sum.accumulate(got);
    }
    EXPECT_EQ(sum.tuples, runs.nnz());
    EXPECT_EQ(sum.tuples, total.tuples);
    EXPECT_EQ(sum.flops, total.flops);
    EXPECT_EQ(sum.max_row_flops, total.max_row_flops);
  }
  std::vector<ProductStats> short_table(rows.size() - 1);
  EXPECT_THROW(partial_product_runs(a, b, rows, p.is_high, true, pool1,
                                      nullptr, nullptr, short_table),
               CheckError);
}

// A call that lists some rows, over two parts, fills only their slots of
// the by-row table: each listed row's slot equals the one-row call against
// its part's view of B, and every other slot keeps what it held.
TEST(PartialProduct, RowStatsLeaveUnlistedRowsUntouched) {
  const CsrMatrix a = test::random_csr(300, 30, 0.2, 413);
  const CsrMatrix b = test::random_csr(30, 45, 0.25, 414);
  const RowPartition p = classify_rows(b, 8);
  std::vector<index_t> front, back;
  for (index_t i = a.rows - 1; i >= 0; --i) {
    if (i % 3 == 0) front.push_back(i);
    if (i % 3 == 1 && i % 2 == 0) back.push_back(i);
  }
  const MaskedRows parts[] = {{front, p.is_high, true},
                              {back, p.is_high, false}};
  ProductStats marker;
  marker.rows = -7;
  marker.flops = -1;
  for (const std::size_t threads : {1u, 4u}) {
    ThreadPool pool(threads);
    std::vector<ProductStats> table(static_cast<std::size_t>(a.rows), marker);
    partial_product_runs(a, b, parts, pool, nullptr, nullptr, table);
    std::vector<bool> listed(static_cast<std::size_t>(a.rows), false);
    for (const MaskedRows& part : parts) {
      for (const index_t i : part.rows) {
        listed[static_cast<std::size_t>(i)] = true;
        ProductStats want;
        partial_product_runs(a, b, std::span(&i, 1), part.b_mask,
                             part.b_mask_value, pool, &want);
        EXPECT_EQ(stat_fields(table[static_cast<std::size_t>(i)]),
                  stat_fields(want))
            << "row " << i << ", " << threads << " threads";
      }
    }
    for (index_t i = 0; i < a.rows; ++i) {
      if (listed[static_cast<std::size_t>(i)]) continue;
      EXPECT_EQ(stat_fields(table[static_cast<std::size_t>(i)]),
                stat_fields(marker))
          << "unlisted row " << i << ", " << threads << " threads";
    }
  }
}

TEST(PartialProduct, SharedAccumCapKnob) {
  const std::int64_t original = shared_accum_cap();
  set_shared_accum_cap(1);
  EXPECT_EQ(shared_accum_cap(), 1);
  const CsrMatrix a = test::random_csr(20, 20, 0.4, 407);
  ThreadPool pool(2);
  ProductStats stats;
  partial_product_runs(a, a, all_rows(a.rows), {}, true, pool, &stats);
  // With cap 1 nearly everything lands on the global path.
  EXPECT_GT(stats.flops_global, stats.flops_shared);
  set_shared_accum_cap(original);
  EXPECT_THROW(set_shared_accum_cap(0), CheckError);
}

}  // namespace
}  // namespace hh
