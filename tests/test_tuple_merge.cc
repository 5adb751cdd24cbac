#include "primitives/tuple_merge.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <utility>

#include "sparse/equality.hpp"
#include "test_util.hpp"
#include "util/check.hpp"
#include "util/prng.hpp"

namespace hh {
namespace {

// The Phase IV contract spelled out: a stable sort of the tuples by (r, c),
// then each key summed from value_t{0} in input order.
CsrMatrix stable_sort_reference(const CooMatrix& coo) {
  std::vector<std::size_t> order(coo.nnz());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t x, std::size_t y) {
                     return std::pair(coo.r[x], coo.c[x]) <
                            std::pair(coo.r[y], coo.c[y]);
                   });
  CsrMatrix out(coo.rows, coo.cols);
  for (std::size_t k = 0; k < order.size();) {
    const index_t r = coo.r[order[k]], c = coo.c[order[k]];
    value_t sum = 0;
    for (; k < order.size() && coo.r[order[k]] == r && coo.c[order[k]] == c;
         ++k) {
      sum += coo.v[order[k]];
    }
    out.indptr[r + 1]++;
    out.indices.push_back(c);
    out.values.push_back(sum);
  }
  for (index_t r = 0; r < coo.rows; ++r) out.indptr[r + 1] += out.indptr[r];
  return out;
}

template <class T>
bool same_bytes(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

void expect_same_bits(const CsrMatrix& want, const CsrMatrix& got) {
  EXPECT_EQ(want.rows, got.rows);
  EXPECT_EQ(want.cols, got.cols);
  EXPECT_TRUE(same_bytes(want.indptr, got.indptr));
  EXPECT_TRUE(same_bytes(want.indices, got.indices));
  EXPECT_TRUE(same_bytes(want.values, got.values));
}

// Seeded tuples whose rows hold 0, 1, 2 or 8-12 column-sorted runs, or one
// unsorted scatter. Columns repeat within and across runs; values include
// explicit zeros, -0.0 and +-1e16, large enough that summation order shows
// in the bits. The runs of all rows arrive shuffled, and the last rows stay
// empty.
CooMatrix run_structured_tuples(std::uint64_t seed) {
  constexpr index_t kRows = 2000, kCols = 64, kTrailingEmpty = 7;
  Xoshiro256 rng(seed);
  const auto value = [&]() -> value_t {
    switch (rng.below(8)) {
      case 0: return 0.0;
      case 1: return -0.0;
      case 2: return rng.below(2) == 0 ? 1e16 : -1e16;
      default: return 2 * rng.uniform() - 1;
    }
  };
  struct Run {
    index_t row;
    std::vector<index_t> cols;
  };
  std::vector<Run> runs;
  for (index_t r = 0; r < kRows - kTrailingEmpty; ++r) {
    const std::uint64_t kind = rng.below(5);  // 0: empty, 4: unsorted
    const std::uint64_t count = kind == 3 ? 8 + rng.below(5) : kind % 4;
    for (std::uint64_t k = 0; k < count; ++k) {
      Run run{r, std::vector<index_t>(1 + rng.below(kind == 4 ? 24 : 12))};
      for (index_t& c : run.cols) c = static_cast<index_t>(rng.below(kCols));
      if (kind != 4) std::sort(run.cols.begin(), run.cols.end());
      runs.push_back(std::move(run));
    }
  }
  for (std::size_t i = runs.size(); i > 1; --i) {
    std::swap(runs[i - 1], runs[rng.below(i)]);
  }
  CooMatrix coo(kRows, kCols);
  for (const Run& run : runs) {
    for (const index_t c : run.cols) coo.push(run.row, c, value());
  }
  return coo;
}

TEST(TupleMerge, MatchesStableSortReferenceBitForBit) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const CooMatrix coo = run_structured_tuples(seed);
    const CsrMatrix want = stable_sort_reference(coo);
    for (const std::size_t threads : {1u, 2u, 4u}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + ", pool " +
                   std::to_string(threads));
      ThreadPool pool(threads);
      MergeStats stats;
      const CsrMatrix got = merged_coo_to_csr(coo, pool, &stats);
      got.validate(true);
      expect_same_bits(want, got);
      EXPECT_EQ(stats.tuples_in, static_cast<std::int64_t>(coo.nnz()));
      EXPECT_EQ(stats.tuples_out, want.nnz());
    }
  }
}

TEST(TupleMerge, SumsEachKeyFromZeroInInputOrder) {
  CooMatrix coo(3, 8);
  // Row 0: 1e16, -1e16, 1 at column 5, the last two in a second run.
  coo.push(0, 5, 1e16);
  coo.push(0, 2, 7.0);
  coo.push(0, 5, -1e16);
  coo.push(0, 5, 1.0);
  // Row 1: 1e16, 1, -1e16 — the 1 is lost against 1e16.
  coo.push(1, 3, 1e16);
  coo.push(1, 3, 1.0);
  coo.push(1, 3, -1e16);
  // Row 2: a lone -0.0, summed from +0.0.
  coo.push(2, 6, -0.0);
  const CsrMatrix m = merged_coo_to_csr(coo);
  ASSERT_EQ(m.row_nnz(0), 2);
  EXPECT_EQ(m.row_values(0)[1], 1.0);
  ASSERT_EQ(m.row_nnz(1), 1);
  EXPECT_EQ(m.row_values(1)[0], 0.0);
  EXPECT_FALSE(std::signbit(m.row_values(1)[0]));
  ASSERT_EQ(m.row_nnz(2), 1);
  EXPECT_EQ(m.row_values(2)[0], 0.0);
  EXPECT_FALSE(std::signbit(m.row_values(2)[0]));
}

TEST(TupleMerge, PartsMergeLikeTheirConcatenation) {
  const CooMatrix whole = run_structured_tuples(4);
  const std::size_t cut1 = whole.nnz() / 3, cut2 = 2 * whole.nnz() / 3;
  const auto slice = [&](std::size_t lo, std::size_t hi) {
    CooMatrix part(whole.rows, whole.cols);
    for (std::size_t i = lo; i < hi; ++i) {
      part.push(whole.r[i], whole.c[i], whole.v[i]);
    }
    return part;
  };
  const CooMatrix a = slice(0, cut1), empty = slice(cut1, cut1),
                  b = slice(cut1, cut2), c = slice(cut2, whole.nnz());
  const CooMatrix* parts[] = {&a, &empty, &b, &c};
  ThreadPool pool(3);
  MergeStats want_stats, got_stats;
  const CsrMatrix want = merged_coo_to_csr(whole, pool, &want_stats);
  const CsrMatrix got = merged_coo_to_csr(parts, pool, &got_stats);
  expect_same_bits(want, got);
  EXPECT_EQ(want_stats.tuples_in, got_stats.tuples_in);
  EXPECT_EQ(want_stats.tuples_out, got_stats.tuples_out);

  const CooMatrix other_shape(whole.rows + 1, whole.cols);
  const CooMatrix* mixed[] = {&a, &other_shape};
  EXPECT_THROW(merged_coo_to_csr(mixed, pool), CheckError);
}

TEST(TupleMerge, RejectsOutOfRangeIndices) {
  const std::pair<index_t, index_t> bad[] = {{3, 0}, {-1, 0}, {0, 4}, {0, -1}};
  for (const auto& [r, c] : bad) {
    CooMatrix coo(3, 4);
    coo.push(1, 1, 1.0);
    coo.push(r, c, 1.0);
    EXPECT_THROW(merged_coo_to_csr(coo), CheckError) << r << ", " << c;
  }
}

TEST(TupleMerge, KeepsDistinctKeysUnsummed) {
  CooMatrix coo(10, 10);
  for (index_t k = 0; k < 100; ++k) {
    const index_t cell = (k * 37) % 100;  // every cell once, shuffled
    coo.push(cell / 10, cell % 10, static_cast<value_t>(cell));
  }
  ThreadPool pool(2);
  const CsrMatrix m = merged_coo_to_csr(coo, pool);
  m.validate(true);
  ASSERT_EQ(m.nnz(), 100);
  for (index_t cell = 0; cell < 100; ++cell) {
    EXPECT_EQ(m.indices[cell], cell % 10);
    EXPECT_EQ(m.values[cell], static_cast<value_t>(cell));
  }
}

TEST(TupleMerge, CombinesDuplicates) {
  CooMatrix coo(3, 3);
  coo.push(1, 2, 1.0);
  coo.push(0, 0, 5.0);
  coo.push(1, 2, 2.0);
  coo.push(1, 2, 4.0);
  MergeStats stats;
  const CsrMatrix m = merged_coo_to_csr(coo, &stats);
  m.validate(true);
  EXPECT_EQ(m.nnz(), 2);
  EXPECT_EQ(stats.tuples_in, 4);
  EXPECT_EQ(stats.tuples_out, 2);
  EXPECT_DOUBLE_EQ(m.row_values(1)[0], 7.0);
}

TEST(TupleMerge, EmptyInput) {
  CooMatrix coo(5, 5);
  MergeStats stats;
  const CsrMatrix m = merged_coo_to_csr(coo, &stats);
  m.validate();
  EXPECT_EQ(m.nnz(), 0);
  EXPECT_EQ(stats.tuples_in, 0);
}

TEST(TupleMerge, MatchesTripletBuilder) {
  Xoshiro256 rng(55);
  CooMatrix coo(30, 30);
  std::vector<index_t> tr, tc;
  std::vector<value_t> tv;
  for (int i = 0; i < 500; ++i) {
    const auto r = static_cast<index_t>(rng.below(30));
    const auto c = static_cast<index_t>(rng.below(30));
    const value_t v = rng.uniform();
    coo.push(r, c, v);
    tr.push_back(r);
    tc.push_back(c);
    tv.push_back(v);
  }
  const CsrMatrix got = merged_coo_to_csr(coo);
  const CsrMatrix want = csr_from_triplets(30, 30, tr, tc, tv);
  std::string why;
  EXPECT_TRUE(approx_equal(want, got, 1e-9, &why)) << why;
}

TEST(TupleMerge, DeterministicAcrossPoolSizes) {
  Xoshiro256 rng(66);
  CooMatrix coo(40, 40);
  for (int i = 0; i < 2000; ++i) {
    coo.push(static_cast<index_t>(rng.below(40)),
             static_cast<index_t>(rng.below(40)), rng.uniform());
  }
  ThreadPool pool1(1), pool4(4);
  const CsrMatrix a = merged_coo_to_csr(coo, pool1);
  const CsrMatrix b = merged_coo_to_csr(coo, pool4);
  EXPECT_EQ(a.indices, b.indices);
  EXPECT_EQ(a.values, b.values);
  EXPECT_EQ(a.indptr, b.indptr);
}

TEST(TupleMerge, OutputSortedWithinRows) {
  CooMatrix coo(2, 10);
  coo.push(0, 9, 1.0);
  coo.push(0, 3, 1.0);
  coo.push(0, 7, 1.0);
  const CsrMatrix m = merged_coo_to_csr(coo);
  m.validate(true);
}

TEST(TupleMerge, PreservesEmptyTrailingRows) {
  CooMatrix coo(10, 10);
  coo.push(0, 0, 1.0);
  const CsrMatrix m = merged_coo_to_csr(coo);
  EXPECT_EQ(m.rows, 10);
  EXPECT_EQ(m.row_nnz(9), 0);
}

}  // namespace
}  // namespace hh
