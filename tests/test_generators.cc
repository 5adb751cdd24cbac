#include <gtest/gtest.h>

#include "gen/powerlaw_gen.hpp"
#include "powerlaw/fit.hpp"
#include "sparse/row_stats.hpp"
#include "util/check.hpp"

namespace hh {
namespace {

TEST(PowerLawGen, ShapeAndValidity) {
  PowerLawGenConfig cfg;
  cfg.rows = 500;
  cfg.alpha = 2.5;
  cfg.target_nnz = 2500;
  cfg.seed = 3;
  const CsrMatrix m = generate_power_law_matrix(cfg);
  m.validate(true);
  EXPECT_EQ(m.rows, 500);
  EXPECT_EQ(m.cols, 500);
}

TEST(PowerLawGen, HitsTargetNnzApproximately) {
  PowerLawGenConfig cfg;
  cfg.rows = 2000;
  cfg.alpha = 2.8;
  cfg.target_nnz = 10000;
  cfg.seed = 4;
  const CsrMatrix m = generate_power_law_matrix(cfg);
  // Within-row dedup removes a few entries; 25% slack.
  EXPECT_GT(m.nnz(), cfg.target_nnz * 3 / 4);
  EXPECT_LT(m.nnz(), cfg.target_nnz * 5 / 4);
}

TEST(PowerLawGen, DeterministicInSeed) {
  PowerLawGenConfig cfg;
  cfg.rows = 300;
  cfg.alpha = 2.5;
  cfg.target_nnz = 1500;
  cfg.seed = 42;
  const CsrMatrix a = generate_power_law_matrix(cfg);
  const CsrMatrix b = generate_power_law_matrix(cfg);
  EXPECT_EQ(a.indices, b.indices);
  EXPECT_EQ(a.values, b.values);
  cfg.seed = 43;
  const CsrMatrix c = generate_power_law_matrix(cfg);
  EXPECT_NE(a.indices, c.indices);
}

TEST(PowerLawGen, RowSizesAreHeavyTailed) {
  PowerLawGenConfig cfg;
  cfg.rows = 20000;
  cfg.alpha = 2.2;
  cfg.target_nnz = 80000;
  cfg.seed = 5;
  const CsrMatrix m = generate_power_law_matrix(cfg);
  const RowStats s = row_stats(m);
  // A heavy tail: the max row is far above the mean.
  EXPECT_GT(static_cast<double>(s.max), 20.0 * s.mean);
  const PowerLawFit fit = fit_power_law(row_nnz_vector(m));
  EXPECT_GT(fit.alpha, 1.5);
  EXPECT_LT(fit.alpha, 4.0);
}

TEST(PowerLawGen, PoissonModeIsNarrow) {
  PowerLawGenConfig cfg;
  cfg.rows = 20000;
  cfg.alpha = 100.0;
  cfg.dist = DegreeDist::kPoisson;
  cfg.poisson_mean = 4.0;
  cfg.target_nnz = 80000;
  cfg.seed = 6;
  const CsrMatrix m = generate_power_law_matrix(cfg);
  const RowStats s = row_stats(m);
  EXPECT_LT(s.max, 30);  // narrow unimodal profile, no hubs
  EXPECT_NEAR(s.mean, 4.0, 0.5);
}

TEST(PowerLawGen, KmaxCapsHubs) {
  PowerLawGenConfig cfg;
  cfg.rows = 5000;
  cfg.alpha = 2.1;
  cfg.target_nnz = 20000;
  cfg.kmax = 50;
  cfg.seed = 7;
  const CsrMatrix m = generate_power_law_matrix(cfg);
  EXPECT_LE(row_stats(m).max, 50);
}

TEST(PowerLawGen, SamplerRespectsBounds) {
  for (double u : {0.0, 0.25, 0.5, 0.9999}) {
    const std::int64_t k = sample_power_law_degree(2.5, 3, 100, u);
    EXPECT_GE(k, 3);
    EXPECT_LE(k, 100);
  }
  EXPECT_EQ(sample_power_law_degree(2.5, 5, 5, 0.7), 5);
}

TEST(PowerLawGen, InvalidConfigThrows) {
  PowerLawGenConfig cfg;
  cfg.rows = 0;
  EXPECT_THROW(generate_power_law_matrix(cfg), CheckError);
  cfg.rows = 10;
  cfg.alpha = 0.5;
  EXPECT_THROW(generate_power_law_matrix(cfg), CheckError);
}

}  // namespace
}  // namespace hh
