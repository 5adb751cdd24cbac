// Property-based sweep: every kernel must agree with the dense reference,
// and bit for bit with Gustavson, on a grid of shapes × densities, plus
// algebraic identities that any correct SpGEMM satisfies.
#include <gtest/gtest.h>

#include <tuple>

#include "gen/powerlaw_gen.hpp"
#include "sparse/convert.hpp"
#include "spgemm/gustavson.hpp"
#include "spgemm/spgemm.hpp"
#include "test_util.hpp"

namespace hh {
namespace {

using Shape = std::tuple<int, int, int, double>;  // m, p, n, density

class SpgemmGrid
    : public testing::TestWithParam<std::tuple<Shape, SpgemmKind>> {
 protected:
  SpgemmGrid() {
    const auto& [m, p, n, density] = std::get<0>(GetParam());
    a_ = test::random_csr(m, p, density, 1000 + m * 7 + p);
    b_ = test::random_csr(p, n, density, 2000 + n * 13 + p);
  }

  SpgemmKind kind() const { return std::get<1>(GetParam()); }

  CsrMatrix a_;
  CsrMatrix b_;
  ThreadPool pool_{2};
};

TEST_P(SpgemmGrid, MatchesReference) {
  test::expect_matches_reference(a_, b_, multiply(a_, b_, kind(), pool_));
}

// multiply()'s promise: every kind's indptr, indices and value bytes are
// Gustavson's.
TEST_P(SpgemmGrid, BitIdenticalToGustavson) {
  test::expect_same_bits(multiply(a_, b_, SpgemmKind::kGustavson, pool_),
                         multiply(a_, b_, kind(), pool_), to_string(kind()));
}

INSTANTIATE_TEST_SUITE_P(
    ShapesAndKinds, SpgemmGrid,
    testing::Combine(testing::Values(Shape{1, 1, 1, 1.0}, Shape{1, 8, 1, 0.5},
                                     Shape{8, 1, 8, 0.5}, Shape{16, 16, 16, 0.05},
                                     Shape{16, 16, 16, 0.3},
                                     Shape{33, 17, 9, 0.2},
                                     Shape{9, 17, 33, 0.2},
                                     Shape{40, 40, 40, 0.1}),
                     testing::Values(SpgemmKind::kGustavson,
                                     SpgemmKind::kRowColumn)));

class AlgebraTest : public testing::TestWithParam<std::uint64_t> {};

TEST_P(AlgebraTest, Associativity) {
  const std::uint64_t seed = GetParam();
  ThreadPool pool(2);
  const CsrMatrix a = test::random_csr(10, 12, 0.3, seed);
  const CsrMatrix b = test::random_csr(12, 9, 0.3, seed + 1);
  const CsrMatrix c = test::random_csr(9, 11, 0.3, seed + 2);
  const CsrMatrix left = gustavson_spgemm(gustavson_spgemm(a, b), c);
  const CsrMatrix right = gustavson_spgemm(a, gustavson_spgemm(b, c));
  // (AB)C and A(BC) agree where nonzero; both may carry explicit zeros from
  // cancellation, so compare after dropping tiny values.
  std::string why;
  EXPECT_TRUE(approx_equal(drop_small(left, 1e-12), drop_small(right, 1e-12),
                           1e-6, &why))
      << why;
}

TEST_P(AlgebraTest, TransposeAntiHomomorphism) {
  const std::uint64_t seed = GetParam();
  const CsrMatrix a = test::random_csr(10, 12, 0.3, seed + 5);
  const CsrMatrix b = test::random_csr(12, 9, 0.3, seed + 6);
  const CsrMatrix lhs = transpose(gustavson_spgemm(a, b));
  const CsrMatrix rhs = gustavson_spgemm(transpose(b), transpose(a));
  std::string why;
  EXPECT_TRUE(approx_equal(lhs, rhs, 1e-9, &why)) << why;
}

TEST_P(AlgebraTest, PowerLawSquareMatchesReference) {
  PowerLawGenConfig cfg;
  cfg.rows = 120;
  cfg.alpha = 2.5;
  cfg.target_nnz = 600;
  cfg.seed = GetParam();
  const CsrMatrix a = generate_power_law_matrix(cfg);
  test::expect_matches_reference(a, a, gustavson_spgemm(a, a));
}

INSTANTIATE_TEST_SUITE_P(Seeds, AlgebraTest,
                         testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

}  // namespace
}  // namespace hh
