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

value_t seeded_value(Xoshiro256& rng) {
  switch (rng.below(8)) {
    case 0: return 0.0;
    case 1: return -0.0;
    case 2: return rng.below(2) == 0 ? 1e16 : -1e16;
    default: return 2 * rng.uniform() - 1;
  }
}

// Seeded tuples whose rows hold 0, 1, 2 or 8-12 column-sorted runs, or one
// unsorted scatter. Columns repeat within and across runs; values include
// explicit zeros, -0.0 and +-1e16, large enough that summation order shows
// in the bits. The runs of all rows arrive shuffled, and the last rows stay
// empty.
CooMatrix run_structured_tuples(std::uint64_t seed) {
  constexpr index_t kRows = 2000, kCols = 64, kTrailingEmpty = 7;
  Xoshiro256 rng(seed);
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
    for (const index_t c : run.cols) coo.push(run.row, c, seeded_value(rng));
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

// ---- merge_row_runs: Phase IV over the run stores of the partial products.

// A run store from each row's (column, value) cells, taken as given.
using Cells = std::vector<std::pair<index_t, value_t>>;
CsrMatrix run_store(index_t cols, const std::vector<Cells>& rows) {
  CsrMatrix m(static_cast<index_t>(rows.size()), cols);
  for (std::size_t r = 0; r < rows.size(); ++r) {
    for (const auto& [c, v] : rows[r]) {
      m.indices.push_back(c);
      m.values.push_back(v);
    }
    m.indptr[r + 1] = static_cast<offset_t>(m.indices.size());
  }
  return m;
}

std::vector<const CsrMatrix*> pointers(const std::vector<CsrMatrix>& parts) {
  std::vector<const CsrMatrix*> out;
  for (const CsrMatrix& p : parts) out.push_back(&p);
  return out;
}

// Three stores shaped like Phase IV's input (hh, ll, queue): each row has
// zero, one or two strictly ascending runs in random parts, the two often
// sharing columns. Values include explicit zeros, -0.0 and +-1e16. The last
// rows stay empty.
std::vector<CsrMatrix> seeded_run_stores(std::uint64_t seed) {
  constexpr index_t kRows = 2000, kCols = 64, kTrailingEmpty = 7;
  Xoshiro256 rng(seed);
  std::vector<std::vector<Cells>> rows(3, std::vector<Cells>(kRows));
  for (index_t r = 0; r < kRows - kTrailingEmpty; ++r) {
    // One run goes to part `pick`; two go to the other two parts.
    const std::uint64_t runs = rng.below(3);
    const std::uint64_t pick = rng.below(3);
    for (std::uint64_t p = 0; p < 3; ++p) {
      if (runs == 1 ? p != pick : runs == 0 || p == pick) continue;
      for (index_t c = 0; c < kCols; ++c) {
        if (rng.below(3) == 0) rows[p][r].push_back({c, seeded_value(rng)});
      }
    }
  }
  std::vector<CsrMatrix> parts;
  for (const std::vector<Cells>& part : rows) {
    parts.push_back(run_store(kCols, part));
  }
  return parts;
}

// The runs as tuples, parts in order: the input order the merge sums in.
CooMatrix as_tuples(const std::vector<CsrMatrix>& parts) {
  CooMatrix coo(parts.front().rows, parts.front().cols);
  for (const CsrMatrix& p : parts) {
    for (index_t r = 0; r < p.rows; ++r) {
      for (offset_t k = p.indptr[r]; k < p.indptr[r + 1]; ++k) {
        coo.push(r, p.indices[k], p.values[k]);
      }
    }
  }
  return coo;
}

TEST(RunMerge, MatchesStableSortReferenceBitForBit) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const std::vector<CsrMatrix> parts = seeded_run_stores(seed);
    const CooMatrix tuples = as_tuples(parts);
    const CsrMatrix want = stable_sort_reference(tuples);
    ASSERT_EQ(want.row_nnz(want.rows - 1), 0);
    for (const std::size_t threads : {1u, 2u, 4u}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + ", pool " +
                   std::to_string(threads));
      ThreadPool pool(threads);
      MergeStats stats;
      const CsrMatrix got = merge_row_runs(pointers(parts), pool, &stats);
      got.validate(true);
      expect_same_bits(want, got);
      EXPECT_EQ(stats.tuples_in, static_cast<std::int64_t>(tuples.nnz()));
      EXPECT_EQ(stats.tuples_out, want.nnz());
    }
  }
}

TEST(RunMerge, SumsFromZeroInPartOrder) {
  // Row 0: 1e16 then -1e16 at column 5, and 7 alone at column 2. Row 1: two
  // -0.0 runs, whose sum from +0.0 is +0.0 (-0.0 + -0.0 alone would be
  // -0.0). Row 2: a lone -0.0. Row 3 stays empty.
  const std::vector<Cells> first = {{{2, 7.0}, {5, 1e16}}, {{3, -0.0}}, {}, {}};
  const std::vector<Cells> second = {{{5, -1e16}}, {{3, -0.0}}, {{6, -0.0}}, {}};
  const std::vector<CsrMatrix> parts = {run_store(8, first),
                                        run_store(8, second)};
  ThreadPool pool(2);
  const CsrMatrix m = merge_row_runs(pointers(parts), pool);
  m.validate(true);
  const CsrMatrix want = run_store(
      8, {{{2, (0.0 + 7.0)}, {5, (0.0 + 1e16) + -1e16}}, {{3, 0.0}},
          {{6, 0.0}}, {}});
  expect_same_bits(want, m);
  EXPECT_FALSE(std::signbit(m.row_values(1)[0]));
  EXPECT_FALSE(std::signbit(m.row_values(2)[0]));
}

TEST(RunMerge, KeepsEmptyAndTrailingRows) {
  const std::vector<CsrMatrix> parts = {
      run_store(10, {{}, {{4, 1.0}}, {}, {}}),
      run_store(10, {{}, {}, {}, {}}),
      run_store(10, {{}, {{1, 2.0}, {4, 3.0}}, {}, {}})};
  ThreadPool pool(3);
  MergeStats stats;
  const CsrMatrix m = merge_row_runs(pointers(parts), pool, &stats);
  m.validate(true);
  EXPECT_EQ(m.rows, 4);
  EXPECT_EQ(m.cols, 10);
  EXPECT_EQ(m.indptr, (std::vector<offset_t>{0, 0, 2, 2, 2}));
  EXPECT_EQ(m.indices, (std::vector<index_t>{1, 4}));
  EXPECT_EQ(m.values, (std::vector<value_t>{2.0, 4.0}));
  EXPECT_EQ(stats.tuples_in, 3);
  EXPECT_EQ(stats.tuples_out, 2);
  const std::vector<CsrMatrix> none = {CsrMatrix(5, 5)};
  EXPECT_EQ(merge_row_runs(pointers(none), pool).indptr,
            std::vector<offset_t>(6, 0));
}

TEST(RunMerge, RejectsMalformedParts) {
  ThreadPool pool(2);
  const auto merge = [&](const std::vector<CsrMatrix>& parts) {
    return merge_row_runs(pointers(parts), pool);
  };
  const CsrMatrix good = run_store(4, {{{0, 1.0}}, {{3, 1.0}}});
  EXPECT_THROW(merge({good, run_store(4, {{}, {}, {}})}), CheckError);
  EXPECT_THROW(merge({good, run_store(5, {{}, {}})}), CheckError);
  for (const index_t c : {4, -1}) {
    EXPECT_THROW(merge({good, run_store(4, {{}, {{c, 1.0}}})}), CheckError)
        << c;
  }
  CsrMatrix past_end = good;
  past_end.indptr = {0, 3, 2};  // row 0 claims three of the two entries
  EXPECT_THROW(merge({past_end}), CheckError);
  EXPECT_THROW(merge({run_store(4, {{{2, 1.0}, {1, 1.0}}, {}})}), CheckError);
  EXPECT_THROW(merge({run_store(4, {{{2, 1.0}, {2, 1.0}}, {}})}), CheckError);
  // kMaxRunsPerRow non-empty runs merge; one more throws.
  EXPECT_NO_THROW(merge({good, good}));
  EXPECT_THROW(merge({good, good, good}), CheckError);
  EXPECT_NO_THROW(merge({good, run_store(4, {{}, {}}), good}));
}

}  // namespace
}  // namespace hh
