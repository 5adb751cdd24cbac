#include <gtest/gtest.h>

#include "spgemm/gustavson.hpp"
#include "spgemm/row_column.hpp"
#include "spgemm/spgemm.hpp"
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

TEST(SpgemmKernels, GustavsonMatchesReference) {
  test::expect_matches_reference(small_a(), small_b(),
                                 gustavson_spgemm(small_a(), small_b()));
}

TEST(SpgemmKernels, GustavsonParallelMatchesSequential) {
  ThreadPool pool(4);
  const CsrMatrix seq = gustavson_spgemm(small_a(), small_b());
  const CsrMatrix par = gustavson_spgemm_parallel(small_a(), small_b(), pool);
  EXPECT_EQ(seq.indices, par.indices);
  EXPECT_EQ(seq.values, par.values);
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

}  // namespace
}  // namespace hh
