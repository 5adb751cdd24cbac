#include "primitives/tuple_merge.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "test_util.hpp"
#include "util/check.hpp"
#include "util/prng.hpp"

namespace hh {
namespace {

value_t seeded_value(Xoshiro256& rng) {
  switch (rng.below(8)) {
    case 0: return 0.0;
    case 1: return -0.0;
    case 2: return rng.below(2) == 0 ? 1e16 : -1e16;
    default: return 2 * rng.uniform() - 1;
  }
}

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
std::vector<test::Tuple> as_tuples(const std::vector<CsrMatrix>& parts) {
  std::vector<test::Tuple> tuples;
  for (const CsrMatrix& p : parts) {
    for (index_t r = 0; r < p.rows; ++r) {
      for (offset_t k = p.indptr[r]; k < p.indptr[r + 1]; ++k) {
        tuples.push_back({r, p.indices[k], p.values[k]});
      }
    }
  }
  return tuples;
}

TEST(RunMerge, MatchesStableSortReferenceBitForBit) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const std::vector<CsrMatrix> parts = seeded_run_stores(seed);
    const std::vector<test::Tuple> tuples = as_tuples(parts);
    const CsrMatrix want = test::stable_sort_reference(
        parts.front().rows, parts.front().cols, tuples);
    ASSERT_EQ(want.row_nnz(want.rows - 1), 0);
    for (const std::size_t threads : {1u, 2u, 4u}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + ", pool " +
                   std::to_string(threads));
      ThreadPool pool(threads);
      MergeStats stats;
      const CsrMatrix got = merge_row_runs(pointers(parts), pool, &stats);
      got.validate(true);
      test::expect_same_bits(want, got);
      EXPECT_EQ(stats.tuples_in, static_cast<std::int64_t>(tuples.size()));
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
  test::expect_same_bits(want, m);
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
  EXPECT_EQ(m.indices, (DefaultInitVector<index_t>{1, 4}));
  EXPECT_EQ(m.values, (DefaultInitVector<value_t>{2.0, 4.0}));
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
