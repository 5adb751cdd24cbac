#include <gtest/gtest.h>

#include "sparse/convert.hpp"
#include "sparse/equality.hpp"
#include "test_util.hpp"

namespace hh {
namespace {

TEST(Convert, TransposeTwiceIsIdentity) {
  const CsrMatrix m = test::random_csr(12, 18, 0.3, 5);
  const CsrMatrix tt = transpose(transpose(m));
  std::string why;
  EXPECT_TRUE(approx_equal(m, tt, 1e-12, &why)) << why;
}

TEST(Convert, TransposeMovesEntries) {
  const std::vector<index_t> r{0, 1};
  const std::vector<index_t> c{2, 0};
  const std::vector<value_t> v{5.0, 7.0};
  const CsrMatrix m = csr_from_triplets(2, 3, r, c, v);
  const CsrMatrix t = transpose(m);
  t.validate();
  EXPECT_EQ(t.rows, 3);
  EXPECT_EQ(t.cols, 2);
  EXPECT_EQ(t.row_nnz(2), 1);
  EXPECT_EQ(t.row_indices(2)[0], 0);
  EXPECT_DOUBLE_EQ(t.row_values(2)[0], 5.0);
}

TEST(Convert, TransposeRowsSorted) {
  const CsrMatrix m = test::random_csr(30, 30, 0.25, 11);
  transpose(m).validate(true);
}

TEST(Convert, MaskEntriesKeepsSelectedRows) {
  const CsrMatrix m = test::random_csr(5, 5, 0.5, 3);
  const std::vector<std::uint8_t> keep{1, 0, 1, 0, 0};
  const CsrMatrix masked =
      mask_entries(m, [&](index_t r, index_t) { return keep[r] != 0; });
  masked.validate();
  EXPECT_EQ(masked.rows, m.rows);
  EXPECT_EQ(masked.cols, m.cols);
  EXPECT_EQ(masked.row_nnz(0), m.row_nnz(0));
  EXPECT_EQ(masked.row_nnz(1), 0);
  EXPECT_EQ(masked.row_nnz(2), m.row_nnz(2));
  EXPECT_EQ(masked.row_nnz(3), 0);
}

// Entries are kept by (row, column), each row in its own order, values
// with them.
TEST(Convert, MaskEntriesKeepsEntriesInRowOrder) {
  CsrMatrix m(2, 6);
  m.indptr = {0, 4, 6};
  m.indices = {5, 1, 4, 2, 3, 0};
  m.values = {1, 2, 3, 4, 5, 6};
  const CsrMatrix masked = mask_entries(
      m, [](index_t r, index_t c) { return r == 1 || c % 2 == 0; });
  EXPECT_EQ(masked.indptr, (std::vector<offset_t>{0, 2, 4}));
  EXPECT_EQ(masked.indices, (DefaultInitVector<index_t>{4, 2, 3, 0}));
  EXPECT_EQ(masked.values, (DefaultInitVector<value_t>{3, 4, 5, 6}));
}

}  // namespace
}  // namespace hh
