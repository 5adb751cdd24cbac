#include "sparse/row_stats.hpp"

#include <gtest/gtest.h>

#include "test_util.hpp"

namespace hh {
namespace {

CsrMatrix ladder_matrix() {
  // Row r has r nonzeros (r = 0..4).
  std::vector<index_t> tr, tc;
  std::vector<value_t> tv;
  for (index_t r = 0; r < 5; ++r) {
    for (index_t k = 0; k < r; ++k) {
      tr.push_back(r);
      tc.push_back(k);
      tv.push_back(1.0);
    }
  }
  return csr_from_triplets(5, 5, tr, tc, tv);
}

TEST(RowStats, VectorMatchesRowNnz) {
  const CsrMatrix m = ladder_matrix();
  const auto v = row_nnz_vector(m);
  ASSERT_EQ(v.size(), 5u);
  for (index_t r = 0; r < 5; ++r) EXPECT_EQ(v[r], r);
}

TEST(RowStats, StatsFields) {
  const CsrMatrix m = ladder_matrix();
  const RowStats s = row_stats(m);
  EXPECT_EQ(s.min, 0);
  EXPECT_EQ(s.max, 4);
  EXPECT_EQ(s.empty_rows, 1);
  EXPECT_DOUBLE_EQ(s.mean, 2.0);
}

TEST(RowStats, CountRowsAtLeast) {
  const CsrMatrix m = ladder_matrix();
  EXPECT_EQ(count_rows_at_least(m, 0), 5);
  EXPECT_EQ(count_rows_at_least(m, 3), 2);
  EXPECT_EQ(count_rows_at_least(m, 5), 0);
}

TEST(RowStats, EmptyMatrix) {
  const CsrMatrix m(3, 3);
  const RowStats s = row_stats(m);
  EXPECT_EQ(s.max, 0);
  EXPECT_EQ(s.empty_rows, 3);
}

}  // namespace
}  // namespace hh
