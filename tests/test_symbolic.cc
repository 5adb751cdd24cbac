#include "spgemm/symbolic.hpp"

#include <gtest/gtest.h>

#include "spgemm/reference.hpp"
#include "test_util.hpp"
#include "util/check.hpp"

namespace hh {
namespace {

TEST(Symbolic, RowFlopsMatchesBruteForce) {
  const CsrMatrix a = test::random_csr(15, 12, 0.3, 2);
  const CsrMatrix b = test::random_csr(12, 18, 0.25, 3);
  const auto flops = row_flops(a, b);
  ASSERT_EQ(flops.size(), 15u);
  for (index_t i = 0; i < a.rows; ++i) {
    offset_t want = 0;
    for (const index_t j : a.row_indices(i)) want += b.row_nnz(j);
    EXPECT_EQ(flops[i], want);
  }
}

TEST(Symbolic, TotalFlopsIsSum) {
  const CsrMatrix a = test::random_csr(10, 10, 0.4, 4);
  const auto flops = row_flops(a, a);
  offset_t sum = 0;
  for (const offset_t f : flops) sum += f;
  EXPECT_EQ(total_flops(a, a), sum);
}

TEST(Symbolic, TotalFlopsSurvivesPastTwoToTheThirtyFirst) {
  // A tall-thin × short-fat product whose intermediate-product count blows
  // past 2^31 while the operands stay tiny: 70000 rows of A each hit the
  // single row of B (31000 nnz) → 2.17e9 products. A 32-bit accumulator
  // wraps negative here; the 64-bit contract must report the exact total.
  constexpr index_t kRowsA = 70000;
  constexpr index_t kNnzB = 31000;
  CsrMatrix a(kRowsA, 1);
  a.indices.assign(static_cast<std::size_t>(kRowsA), 0);
  a.values.assign(static_cast<std::size_t>(kRowsA), 1.0);
  for (index_t i = 0; i < kRowsA; ++i) a.indptr[i + 1] = i + 1;
  CsrMatrix b(1, kNnzB);
  b.indptr = {0, kNnzB};
  b.indices.resize(static_cast<std::size_t>(kNnzB));
  for (index_t j = 0; j < kNnzB; ++j) b.indices[j] = j;
  b.values.assign(static_cast<std::size_t>(kNnzB), 1.0);

  const std::int64_t total = total_flops(a, b);
  EXPECT_EQ(total, std::int64_t{kRowsA} * kNnzB);  // 2,170,000,000 > 2^31
  EXPECT_GT(total, std::int64_t{1} << 31);
}

TEST(Symbolic, ExactRowNnzMatchesReference) {
  const CsrMatrix a = test::random_csr(15, 12, 0.3, 6);
  const CsrMatrix b = test::random_csr(12, 14, 0.3, 7);
  const auto nnz = exact_row_nnz(a, b);
  const CsrMatrix c = reference_multiply_dense(a, b);
  for (index_t i = 0; i < a.rows; ++i) {
    EXPECT_EQ(nnz[i], c.row_nnz(i)) << "row " << i;
  }
}

TEST(Symbolic, ExactRowNnzBoundedByFlops) {
  const CsrMatrix a = test::random_csr(25, 25, 0.2, 8);
  const auto nnz = exact_row_nnz(a, a);
  const auto flops = row_flops(a, a);
  for (index_t i = 0; i < a.rows; ++i) {
    EXPECT_LE(nnz[i], flops[i]);
  }
}

TEST(Symbolic, IncompatibleShapesThrow) {
  const CsrMatrix a(3, 4), b(5, 3);
  EXPECT_THROW(row_flops(a, b), CheckError);
  EXPECT_THROW(exact_row_nnz(a, b), CheckError);
}

}  // namespace
}  // namespace hh
