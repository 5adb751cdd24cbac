#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <numeric>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "gen/datasets.hpp"
#include "sparse/partition.hpp"
#include "spgemm/gustavson.hpp"
#include "spgemm/row_column.hpp"
#include "spgemm/run_order.hpp"
#include "spgemm/spgemm.hpp"
#include "spgemm/symbolic.hpp"
#include "test_util.hpp"
#include "util/check.hpp"

namespace hh {
namespace {

const CsrMatrix& small_a() {
  static const CsrMatrix a = test::random_csr(20, 16, 0.25, 101);
  return a;
}
const CsrMatrix& small_b() {
  static const CsrMatrix b = test::random_csr(16, 24, 0.3, 102);
  return b;
}

// order_run's per-row switch. Each case lists a row's columns in
// first-touch order (upper half first) and the way order_run must take:
// sort up to 32 columns, and past that sort only when the columns span more
// than n·bit_width(n) 64-bit words (33 columns: 198 words).
struct RunCase {
  std::string name;
  std::vector<index_t> cols;
  RunOrder want;
};

std::vector<index_t> col_range(index_t lo, index_t hi) {
  std::vector<index_t> v(static_cast<std::size_t>(hi - lo));
  std::iota(v.begin(), v.end(), lo);
  return v;
}

std::vector<index_t> join(std::vector<index_t> x,
                          const std::vector<index_t>& y) {
  x.insert(x.end(), y.begin(), y.end());
  return x;
}

// B's width: 200 full words and a partial one.
constexpr index_t kWideCols = 200 * 64 + 37;

std::vector<RunCase> run_cases() {
  std::vector<index_t> spread;
  for (index_t k = 0; k < 32; ++k) spread.push_back(7 + 390 * k);
  spread.push_back(kWideCols - 1);
  std::vector<index_t> even, odd;
  for (index_t c = 0; c < 72; c += 2) {
    even.push_back(c);
    odd.push_back(c + 1);
  }
  return {
      {"empty", {}, RunOrder::kSort},
      {"one", {5}, RunOrder::kSort},
      {"32 packed", col_range(100, 132), RunOrder::kSort},
      {"33 packed", col_range(200, 233), RunOrder::kBitmap},
      {"33 over 198 words", join(col_range(0, 32), {197 * 64}),
       RunOrder::kBitmap},
      {"33 over 199 words", join(col_range(0, 32), {198 * 64}),
       RunOrder::kSort},
      {"33 spread", spread, RunOrder::kSort},
      {"edge columns", join({0, 63, 64, kWideCols - 1}, col_range(1000, 1060)),
       RunOrder::kBitmap},
      {"even columns", even, RunOrder::kBitmap},
      {"odd columns", odd, RunOrder::kBitmap},
  };
}

// The columns with their upper half first, so that no case arrives sorted.
std::vector<index_t> first_touch_order(std::vector<index_t> cols) {
  std::sort(cols.begin(), cols.end());
  std::rotate(cols.begin(), cols.begin() + cols.size() / 2, cols.end());
  return cols;
}

value_t value_of(index_t col) { return 1.0 + 0.001 * col; }

TEST(OrderRun, SortsOrScansByRowSizeAndSpan) {
  const auto words = static_cast<std::size_t>(kWideCols + 63) / 64;
  std::vector<std::uint64_t> bits(words, 0);
  std::vector<value_t> acc(static_cast<std::size_t>(kWideCols));
  for (index_t c = 0; c < kWideCols; ++c) acc[c] = value_of(c);
  for (const RunCase& rc : run_cases()) {
    // Room for every column, so a scan that emits too many columns fails
    // the checks below instead of writing past the buffers.
    std::vector<index_t> cols(acc.size(), 0);
    std::vector<value_t> vals(acc.size(), 0.0);
    const std::vector<index_t> first = first_touch_order(rc.cols);
    std::copy(first.begin(), first.end(), cols.begin());
    const RunOrder got = order_run(cols.data(), first.size(), acc.data(),
                                   bits.data(), vals.data());
    EXPECT_EQ(got, rc.want) << rc.name;
    std::vector<index_t> want = rc.cols;
    std::sort(want.begin(), want.end());
    cols.resize(want.size());
    EXPECT_EQ(cols, want) << rc.name;
    for (std::size_t m = 0; m < want.size(); ++m) {
      EXPECT_EQ(vals[m], value_of(want[m])) << rc.name << " @" << m;
    }
    EXPECT_TRUE(std::all_of(bits.begin(), bits.end(),
                            [](std::uint64_t w) { return w == 0; }))
        << rc.name << " left a bit set";
  }
}

// Products whose rows take every way of order_run, checked bit for bit
// against the dense reference, which orders each row by a scan over all of
// B's columns. Product row k is a run case: A(k, :) = 1.5·B(2k, :) +
// 0.75·B(2k + 1, :), with B(2k, :) the case's upper half and B(2k + 1, :) its
// lower half, so the SPA pass sees the columns upper half first. The even and
// odd cases are consecutive bitmap rows on the same words. Three more rows:
// a bitmap row whose 40 columns cancel to +0.0 and whose last column is the
// lone product -1 × 0.0 = -0.0 (summed from +0.0: +0.0), the same in a
// sorted row, and a bitmap row summing three B rows over shared columns.
struct CraftedProduct {
  CsrMatrix a;
  CsrMatrix b;
};

CsrMatrix from_rows(index_t cols,
                    const std::vector<std::vector<std::pair<index_t, value_t>>>&
                        rows) {
  CsrMatrix m(static_cast<index_t>(rows.size()), cols);
  for (std::size_t r = 0; r < rows.size(); ++r) {
    for (const auto& [c, v] : rows[r]) {
      m.indices.push_back(c);
      m.values.push_back(v);
    }
    m.indptr[r + 1] = static_cast<offset_t>(m.indices.size());
  }
  m.validate();
  return m;
}

std::vector<std::pair<index_t, value_t>> entries(
    const std::vector<index_t>& cols, value_t scale = 1.0) {
  std::vector<std::pair<index_t, value_t>> row;
  for (const index_t c : cols) row.emplace_back(c, scale * value_of(c));
  return row;
}

CraftedProduct crafted_product() {
  std::vector<std::vector<std::pair<index_t, value_t>>> b_rows, a_rows;
  for (const RunCase& rc : run_cases()) {
    std::vector<index_t> cols = rc.cols;
    std::sort(cols.begin(), cols.end());
    const auto mid =
        cols.begin() + static_cast<std::ptrdiff_t>(cols.size() / 2);
    const auto j = static_cast<index_t>(b_rows.size());
    b_rows.push_back(entries({mid, cols.end()}));
    b_rows.push_back(entries({cols.begin(), mid}));
    a_rows.push_back({{j, 1.5}, {j + 1, 0.75}});
  }
  const auto j = static_cast<index_t>(b_rows.size());
  b_rows.push_back(entries(col_range(300, 340)));
  b_rows.push_back(entries(col_range(300, 340)));
  b_rows.push_back({{340, 0.0}});
  b_rows.push_back(entries({7, 9}));
  b_rows.push_back(entries({7, 9}));
  b_rows.push_back({{11, 0.0}});
  b_rows.push_back(entries(col_range(290, 330), 0.1));
  a_rows.push_back({{j, 1.0}, {j + 1, -1.0}, {j + 2, -1.0}});
  a_rows.push_back({{j + 3, 1.0}, {j + 4, -1.0}, {j + 5, -1.0}});
  a_rows.push_back({{j, 1e16}, {j + 2, 3.0}, {j + 6, -7.0}});
  return {from_rows(static_cast<index_t>(b_rows.size()), a_rows),
          from_rows(kWideCols, b_rows)};
}

// C = A × B by the one SPA pass's sided instantiation (numeric_in_halves):
// the full pass into the row sizes the symbolic count gives, or, given C's
// pattern, the known-pattern pass. C's arrays are not value-initialised on
// resize (sparse/csr.hpp), so a slot the pass failed to write would keep
// what its memory held. Here that is a sentinel: C's capacity is filled
// with it, then cleared, so the pass sizes C into the sentinel and must
// overwrite every slot (a sum from +0.0 is never -0.0).
CsrMatrix in_halves(const CsrMatrix& a, const CsrMatrix& b,
                    std::span<const std::uint8_t> a_side,
                    std::span<const std::uint8_t> b_side, ThreadPool& pool,
                    WorkspacePool* workspace = nullptr,
                    const CsrPattern* pattern = nullptr) {
  const std::vector<offset_t> sizes = exact_row_nnz(a, b);
  const auto nnz = static_cast<std::size_t>(
      std::accumulate(sizes.begin(), sizes.end(), offset_t{0}));
  CsrMatrix c(a.rows, b.cols);
  c.indices.assign(nnz, -7);
  c.values.assign(nnz, -0.0);
  c.indices.clear();
  c.values.clear();
  if (pattern != nullptr) {
    numeric_in_halves(a, b, a_side, b_side, *pattern, c, pool, workspace);
  } else {
    std::copy(sizes.begin(), sizes.end(), c.indptr.begin() + 1);
    numeric_in_halves(a, b, a_side, b_side, c, pool, workspace);
  }
  return c;
}

// in_halves with every row on one side, so each row's second half is empty
// and each value is (0 + sum) + 0, the sum's own bits: the bits the one
// SPA pass's one-sided instantiation (Gustavson) writes.
CsrMatrix numeric_in_one_half(const CsrMatrix& a, const CsrMatrix& b,
                              ThreadPool& pool,
                              WorkspacePool* workspace = nullptr,
                              const CsrPattern* pattern = nullptr) {
  const std::vector<std::uint8_t> a_side(static_cast<std::size_t>(a.rows), 1);
  const std::vector<std::uint8_t> b_side(static_cast<std::size_t>(b.rows), 1);
  return in_halves(a, b, a_side, b_side, pool, workspace, pattern);
}

// Both instantiations of the one SPA pass: one-sided as Gustavson
// (sequential, and over pools of 1 and 4), and sided with every row on one
// side, by the full pass and by the known-pattern pass into Gustavson's
// pattern. The sided passes run twice through one WorkspacePool, so the
// second round's rows meet SPAs whose markers hold the first round's same
// rows. With B's rows split by parity, consecutive B rows fall on opposite
// sides, so every crafted row sums in two halves (the cancelling rows'
// equal and opposite terms in different halves), and the known-pattern
// pass must give the full pass's bits.
TEST(RunOrderSwitch, EveryKernelMatchesTheDenseReferenceBitForBit) {
  const CraftedProduct p = crafted_product();
  const CsrMatrix want = reference_multiply_dense(p.a, p.b);
  const auto cancel_row = static_cast<index_t>(run_cases().size());
  ASSERT_EQ(want.row_nnz(cancel_row), 41);
  for (const value_t v : want.row_values(cancel_row)) {
    ASSERT_EQ(v, 0.0);
    ASSERT_FALSE(std::signbit(v));
  }
  test::expect_same_bits(want, gustavson_spgemm(p.a, p.b), "gustavson");
  const CsrPattern pattern = CsrPattern::of(gustavson_spgemm(p.a, p.b));
  const std::vector<std::uint8_t> a_side(static_cast<std::size_t>(p.a.rows), 1);
  std::vector<std::uint8_t> parity(static_cast<std::size_t>(p.b.rows));
  for (std::size_t j = 0; j < parity.size(); ++j) parity[j] = j % 2;
  for (const std::size_t threads : {1, 4}) {
    ThreadPool pool(threads);
    const std::string at = " pool " + std::to_string(threads);
    test::expect_same_bits(want, gustavson_spgemm_parallel(p.a, p.b, pool),
                           "gustavson_spgemm_parallel" + at);
    test::expect_same_bits(want, numeric_in_one_half(p.a, p.b, pool),
                           "numeric_in_halves" + at);
    test::expect_same_bits(
        want, numeric_in_one_half(p.a, p.b, pool, nullptr, &pattern),
        "known-pattern pass" + at);
    test::expect_same_bits(
        in_halves(p.a, p.b, a_side, parity, pool),
        in_halves(p.a, p.b, a_side, parity, pool, nullptr, &pattern),
        "known-pattern pass, B split by parity" + at);
    WorkspacePool spas;
    for (int round = 0; round < 2; ++round) {
      test::expect_same_bits(want, numeric_in_one_half(p.a, p.b, pool, &spas),
                             "numeric_in_halves with a WorkspacePool" + at);
      test::expect_same_bits(
          want, numeric_in_one_half(p.a, p.b, pool, &spas, &pattern),
          "known-pattern pass with a WorkspacePool" + at);
    }
  }
}

// A wide B, then a narrower one, through one WorkspacePool: the second
// product's bitmap rows scan words the first product's rows used, so a bit
// left set would surface as a column of the wrong product. Every pooled
// workspace comes back all clear.
TEST(RunOrderSwitch, PooledBitmapStaysClearAcrossProducts) {
  const CraftedProduct wide = crafted_product();
  std::vector<index_t> low = col_range(0, 40);
  low.push_back(99);
  const CsrMatrix narrow_b =
      from_rows(100, {entries(low), entries(col_range(50, 100)), {}});
  const CsrMatrix narrow_a = from_rows(
      3, {{{0, 2.0}}, {{1, 1.0}}, {{0, 1.0}, {1, 0.5}, {2, 1.0}}, {}});
  const struct {
    const char* name;
    const CsrMatrix& a;
    const CsrMatrix& b;
  } products[] = {{"wide", wide.a, wide.b}, {"narrow", narrow_a, narrow_b}};
  ThreadPool pool(4);
  WorkspacePool spas;
  for (const auto& p : products) {
    const CsrMatrix want = reference_multiply_dense(p.a, p.b);
    test::expect_same_bits(want, numeric_in_one_half(p.a, p.b, pool, &spas),
                           p.name);
    const CsrPattern pattern = CsrPattern::of(want);
    test::expect_same_bits(
        want, numeric_in_one_half(p.a, p.b, pool, &spas, &pattern), p.name);
  }
  const WorkspacePool::Stats st = spas.stats();
  ASSERT_GT(st.spa_reuses, 0);
  std::vector<std::unique_ptr<SpaWorkspace>> held;
  for (std::int64_t k = 0; k < st.spa_acquires - st.spa_reuses; ++k) {
    held.push_back(spas.acquire_spa());
    EXPECT_TRUE(std::all_of(held.back()->bits.begin(), held.back()->bits.end(),
                            [](std::uint64_t w) { return w == 0; }))
        << "workspace " << k;
  }
  for (auto& ws : held) spas.release_spa(std::move(ws));
}

// Both passes into a sentinel-filled C (in_halves) on three Table I
// analogues. With every row on one side the full pass must give
// Gustavson's bits. The known-pattern pass takes the pattern of a full pass
// at one threshold and the sides of another, and must give the full pass's
// bits at those sides, with and without a WorkspacePool.
TEST(NumericInHalves, OverwritesEverySlotOfAnUnfilledC) {
  for (const char* name : {"wiki-Vote", "ca-CondMat", "email-Enron"}) {
    const CsrMatrix a = make_dataset(dataset_spec(name), 0.04);
    const CsrMatrix want = gustavson_spgemm(a, a);
    const offset_t mean = std::max<offset_t>(1, a.nnz() / a.rows);
    const RowPartition low = classify_rows(a, mean);
    const RowPartition high = classify_rows(a, 3 * mean);
    ASSERT_GT(high.high_rows.size(), 0u) << name;
    ASSERT_GT(high.low_rows.size(), 0u) << name;
    for (const std::size_t threads : {1, 4}) {
      ThreadPool pool(threads);
      const std::string at =
          std::string(name) + " pool " + std::to_string(threads);
      test::expect_same_bits(want, numeric_in_one_half(a, a, pool), at);
      const CsrPattern pattern =
          CsrPattern::of(in_halves(a, a, low.is_high, low.is_high, pool));
      const CsrMatrix halves =
          in_halves(a, a, high.is_high, high.is_high, pool);
      WorkspacePool spas;
      for (WorkspacePool* ws : {static_cast<WorkspacePool*>(nullptr), &spas,
                                &spas}) {
        test::expect_same_bits(halves,
                               in_halves(a, a, high.is_high, high.is_high,
                                         pool, ws, &pattern),
                               at + " known pattern" +
                                   (ws != nullptr ? " pooled" : ""));
      }
    }
  }
}

TEST(SpgemmKernels, GustavsonMatchesReference) {
  test::expect_matches_reference(small_a(), small_b(),
                                 gustavson_spgemm(small_a(), small_b()));
}

// 300 rows give each of the 4-thread pool's 16 row blocks rows of its own,
// and every product row holds a few hundred columns, so both passes and the
// bitmap ordering run in every block.
TEST(SpgemmKernels, GustavsonParallelMatchesSequential) {
  const CsrMatrix a = test::random_csr(300, 240, 0.04, 103);
  const CsrMatrix b = test::random_csr(240, 1000, 0.03, 104);
  ThreadPool pool(4);
  const CsrMatrix seq = gustavson_spgemm(a, b);
  test::expect_same_bits(seq, gustavson_spgemm_parallel(a, b, pool));
  test::expect_same_bits(reference_multiply_dense(a, b), seq);
}

TEST(SpgemmKernels, RowColumnMatchesReference) {
  test::expect_matches_reference(small_a(), small_b(),
                                 row_column_spgemm(small_a(), small_b()));
}

TEST(SpgemmKernels, PaperWorkedExample) {
  // Fig. 2 of the paper: the 4x3-ish example (here 4x4 with B 4x3).
  const std::vector<index_t> ar{0, 0, 1, 1, 2, 2, 3, 3};
  const std::vector<index_t> ac{1, 2, 2, 3, 0, 2, 0, 3};
  const std::vector<value_t> av{2, 1, 1, 1, 1, 1, 2, 4};
  const CsrMatrix a = csr_from_triplets(4, 4, ar, ac, av);
  const std::vector<index_t> br{0, 0, 0, 1, 2, 3};
  const std::vector<index_t> bc{0, 1, 2, 0, 2, 1};
  const std::vector<value_t> bv{2, 3, 4, 8, 6, 7};
  const CsrMatrix b = csr_from_triplets(4, 3, br, bc, bv);

  const CsrMatrix c = gustavson_spgemm(a, b);
  // Paper Fig. 2: C(1,:) = [16 0 6], C(2,:) = [0 7 6],
  //               C(3,:) = [2 3 10], C(4,:) = [4 34 8] (1-based rows).
  const CsrMatrix want = csr_from_triplets(
      4, 3, std::vector<index_t>{0, 0, 1, 1, 2, 2, 2, 3, 3, 3},
      std::vector<index_t>{0, 2, 1, 2, 0, 1, 2, 0, 1, 2},
      std::vector<value_t>{16, 6, 7, 6, 2, 3, 10, 4, 34, 8});
  std::string why;
  EXPECT_TRUE(approx_equal(want, c, 1e-12, &why)) << why;
}

TEST(SpgemmKernels, IdentityIsNeutral) {
  const CsrMatrix m = test::random_csr(12, 12, 0.3, 9);
  const CsrMatrix i = csr_identity(12);
  std::string why;
  EXPECT_TRUE(approx_equal(m, gustavson_spgemm(i, m), 1e-12, &why)) << why;
  EXPECT_TRUE(approx_equal(m, gustavson_spgemm(m, i), 1e-12, &why)) << why;
}

TEST(SpgemmKernels, EmptyAByB) {
  const CsrMatrix a(5, 4);
  const CsrMatrix b = test::random_csr(4, 6, 0.5, 1);
  const CsrMatrix c = gustavson_spgemm(a, b);
  c.validate();
  EXPECT_EQ(c.nnz(), 0);
  EXPECT_EQ(c.rows, 5);
  EXPECT_EQ(c.cols, 6);
}

TEST(SpgemmKernels, RectangularChain) {
  const CsrMatrix a = test::random_csr(7, 13, 0.3, 11);
  const CsrMatrix b = test::random_csr(13, 5, 0.4, 12);
  test::expect_matches_reference(a, b, gustavson_spgemm(a, b));
}

TEST(SpgemmKernels, IncompatibleShapesThrow) {
  const CsrMatrix a(3, 4), b(5, 3);
  EXPECT_THROW(gustavson_spgemm(a, b), CheckError);
  EXPECT_THROW(row_column_spgemm(a, b), CheckError);
}

class MultiplyDispatchTest : public testing::TestWithParam<SpgemmKind> {};

TEST_P(MultiplyDispatchTest, AllKindsAgree) {
  ThreadPool pool(2);
  const CsrMatrix got = multiply(small_a(), small_b(), GetParam(), pool);
  test::expect_matches_reference(small_a(), small_b(), got,
                                 to_string(GetParam()).c_str());
}

INSTANTIATE_TEST_SUITE_P(Kinds, MultiplyDispatchTest,
                         testing::Values(SpgemmKind::kGustavson,
                                         SpgemmKind::kRowColumn),
                         [](const auto& info) {
                           std::string name = to_string(info.param);
                           for (char& ch : name) {
                             if (ch == '-') ch = '_';
                           }
                           return name;
                         });

// Malformed operands on either side throw before any kernel reads an
// index, whichever kind multiply() dispatches.
class MalformedMultiply : public testing::TestWithParam<test::Malformation> {
};

TEST_P(MalformedMultiply, ThrowsCheckError) {
  const CsrMatrix bad = test::malformed_4x4(GetParam());
  const CsrMatrix good = test::well_formed_4x4();
  ThreadPool pool(2);
  for (const SpgemmKind kind :
       {SpgemmKind::kGustavson, SpgemmKind::kRowColumn}) {
    EXPECT_THROW(multiply(bad, good, kind, pool), CheckError)
        << to_string(kind);
    EXPECT_THROW(multiply(good, bad, kind, pool), CheckError)
        << to_string(kind);
  }
}

INSTANTIATE_TEST_SUITE_P(Malformations, MalformedMultiply,
                         testing::ValuesIn(test::kAllMalformations),
                         test::MalformationParamName());

// Unsorted and repeated columns are well-formed: every kernel sums the
// repeats and writes ascending rows.
TEST(SpgemmKernels, UnsortedAndDuplicateColumnsAreSummed) {
  const CsrMatrix a = test::unsorted_with_duplicates(40, 30, 0.15, 121);
  const CsrMatrix b = test::unsorted_with_duplicates(30, 50, 0.15, 122);
  EXPECT_ANY_THROW(a.validate(/*sorted=*/true));
  EXPECT_NO_THROW(check_operands(a, b));
  ThreadPool pool(3);
  for (const SpgemmKind kind :
       {SpgemmKind::kGustavson, SpgemmKind::kRowColumn}) {
    test::expect_sorted_reference(a, b, multiply(a, b, kind, pool),
                                  to_string(kind));
  }
  test::expect_sorted_reference(a, b, numeric_in_one_half(a, b, pool),
                                "numeric_in_halves");
  const CsrPattern pattern = CsrPattern::of(gustavson_spgemm(a, b));
  test::expect_sorted_reference(
      a, b, numeric_in_one_half(a, b, pool, nullptr, &pattern),
      "known-pattern pass");
}

}  // namespace
}  // namespace hh
