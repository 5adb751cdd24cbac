#include "core/threshold.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "core/hh_cpu.hpp"
#include "gen/datasets.hpp"
#include "gen/powerlaw_gen.hpp"
#include "sparse/row_stats.hpp"
#include "test_util.hpp"
#include "util/check.hpp"

namespace hh {
namespace {

TEST(ThresholdCandidates, AscendingAndDeduplicated) {
  const CsrMatrix m = test::random_csr(100, 100, 0.1, 61);
  const auto cand = threshold_candidates(m);
  ASSERT_FALSE(cand.empty());
  for (std::size_t i = 1; i < cand.size(); ++i) {
    EXPECT_LT(cand[i - 1], cand[i]);
  }
  EXPECT_GE(cand.front(), 2);
}

TEST(ThresholdCandidates, CoversRowSizeRange) {
  PowerLawGenConfig cfg;
  cfg.rows = 3000;
  cfg.alpha = 2.3;
  cfg.target_nnz = 15000;
  cfg.seed = 62;
  const CsrMatrix m = generate_power_law_matrix(cfg);
  const auto cand = threshold_candidates(m);
  const RowStats s = row_stats(m);
  EXPECT_LE(cand.front(), s.min + 2);
  EXPECT_GE(cand.back(), s.max);  // largest candidate empties A_H
}

TEST(ThresholdCandidates, RespectsMaxCount) {
  const CsrMatrix m = test::random_csr(200, 200, 0.2, 63);
  EXPECT_LE(threshold_candidates(m, 5).size(), 5u);
  EXPECT_THROW(threshold_candidates(m, 1), CheckError);
}

TEST(ThresholdCandidates, EmptyMatrixGetsMinimalGrid) {
  // No rows / no nonzeros: the grid must still be non-empty, ascending and
  // free of degenerate t <= 1 entries (t = 0 means "pick analytically" to
  // every caller, so a 0 candidate would be self-referential).
  const CsrMatrix none = csr_from_triplets(5, 5, std::vector<index_t>{},
                                           std::vector<index_t>{},
                                           std::vector<value_t>{});
  const auto cand = threshold_candidates(none);
  ASSERT_FALSE(cand.empty());
  EXPECT_GE(cand.front(), 2);
  for (std::size_t i = 1; i < cand.size(); ++i) {
    EXPECT_LT(cand[i - 1], cand[i]);
  }

  CsrMatrix zero_rows;
  zero_rows.rows = 0;
  zero_rows.cols = 4;
  zero_rows.indptr = {0};
  const auto cand0 = threshold_candidates(zero_rows);
  ASSERT_FALSE(cand0.empty());
  EXPECT_GE(cand0.front(), 2);
}

TEST(ThresholdCandidates, AllEqualRowLengthsGetValidGrid) {
  // Every row has exactly 3 nonzeros: min == max, so the log-spaced span
  // collapses. The grid must still be non-empty, strictly ascending, and
  // hold at least one candidate on each side of the (degenerate) row size
  // so both "all H" and "all L" splits stay reachable.
  std::vector<index_t> r, c;
  std::vector<value_t> v;
  for (index_t i = 0; i < 40; ++i) {
    for (index_t k = 0; k < 3; ++k) {
      r.push_back(i);
      c.push_back((i + k * 7) % 40);
      v.push_back(1.0);
    }
  }
  const CsrMatrix m = csr_from_triplets(40, 40, r, c, v);
  const auto cand = threshold_candidates(m);
  ASSERT_GE(cand.size(), 2u);
  EXPECT_GE(cand.front(), 2);
  for (std::size_t i = 1; i < cand.size(); ++i) {
    EXPECT_LT(cand[i - 1], cand[i]);
  }
  EXPECT_GT(cand.back(), 3);  // one candidate classifies every row as L
}

TEST(ThresholdGrid, UnionOfBothOperandsGrids) {
  const CsrMatrix a = test::random_csr(150, 150, 0.05, 64);
  const CsrMatrix b = test::random_csr(150, 150, 0.2, 65);
  const auto grid = threshold_grid(a, b);
  ASSERT_FALSE(grid.empty());
  for (std::size_t i = 1; i < grid.size(); ++i) {
    EXPECT_LT(grid[i - 1], grid[i]);
  }
  // Every single-operand candidate appears in the union.
  for (const offset_t t : threshold_candidates(a)) {
    EXPECT_NE(std::find(grid.begin(), grid.end(), t), grid.end());
  }
  for (const offset_t t : threshold_candidates(b)) {
    EXPECT_NE(std::find(grid.begin(), grid.end(), t), grid.end());
  }
}

TEST(Threshold, PredictionsPositive) {
  const CsrMatrix m = make_dataset(dataset_spec("wiki-Vote"), 0.1);
  const HeteroPlatform plat;
  for (const offset_t t : threshold_candidates(m)) {
    EXPECT_GT(predict_total_time(m, m, t, plat), 0.0);
  }
}

TEST(Threshold, AnalyticPickIsArgminOfPrediction) {
  const CsrMatrix m = make_dataset(dataset_spec("ca-CondMat"), 0.1);
  const HeteroPlatform plat;
  const ThresholdChoice choice = pick_threshold_analytic(m, m, plat);
  for (const offset_t t : threshold_candidates(m)) {
    EXPECT_LE(choice.predicted_s, predict_total_time(m, m, t, plat) + 1e-12);
  }
}

TEST(Threshold, EmpiricalPickBeatsOrMatchesEveryCandidate) {
  // The pick is the grid's minimum full-run total, and on ties the first
  // candidate that reaches it.
  const CsrMatrix m = make_dataset(dataset_spec("wiki-Vote"), 0.06);
  const HeteroPlatform plat;
  ThreadPool pool(1);
  const ThresholdChoice choice = pick_threshold_empirical(m, m, plat, pool);
  offset_t first_best_t = 0;
  double best_total = std::numeric_limits<double>::infinity();
  for (const offset_t t : threshold_grid(m, m)) {
    HhCpuOptions opt;
    opt.threshold_a = t;
    opt.threshold_b = t;
    const double total = run_hh_cpu(m, m, opt, plat, pool).report.total_s;
    if (total < best_total) {
      best_total = total;
      first_best_t = t;
    }
  }
  EXPECT_EQ(choice.predicted_s, best_total);
  EXPECT_EQ(choice.t, first_best_t);
  EXPECT_GT(choice.predicted_s, 0.0);
}

TEST(Threshold, SweepMatchesPredictionsAndAnalyticPick) {
  const CsrMatrix m = make_dataset(dataset_spec("wiki-Vote"), 0.08);
  const HeteroPlatform plat;
  const ThresholdSweep sweep = sweep_thresholds(m, m, plat);
  ASSERT_EQ(sweep.grid.size(), sweep.predicted_s.size());
  ASSERT_LT(sweep.best, sweep.grid.size());
  for (std::size_t i = 0; i < sweep.grid.size(); ++i) {
    EXPECT_DOUBLE_EQ(sweep.predicted_s[i],
                     predict_total_time(m, m, sweep.grid[i], plat));
    EXPECT_LE(sweep.predicted_s[sweep.best], sweep.predicted_s[i]);
  }
  const ThresholdChoice analytic = pick_threshold_analytic(m, m, plat);
  EXPECT_EQ(analytic.t, sweep.choice().t);
  EXPECT_DOUBLE_EQ(analytic.predicted_s, sweep.choice().predicted_s);
}

TEST(Threshold, IdentityCorrectionIsBitExact) {
  // A default CostCorrection must reproduce the uncorrected prediction to
  // the last bit — the tuner relies on this to leave untouched services
  // byte-identical.
  const CsrMatrix m = make_dataset(dataset_spec("ca-CondMat"), 0.08);
  const HeteroPlatform plat;
  const CostCorrection identity;
  ASSERT_TRUE(identity.is_identity());
  for (const offset_t t : threshold_grid(m, m)) {
    EXPECT_EQ(predict_total_time(m, m, t, plat),
              predict_total_time(m, m, t, plat, identity));
  }
  // A non-identity correction moves the prediction for the device it scales.
  CostCorrection slow_gpu;
  slow_gpu.gpu = 2.0;
  bool any_changed = false;
  for (const offset_t t : threshold_grid(m, m)) {
    any_changed |= predict_total_time(m, m, t, plat, slow_gpu) !=
                   predict_total_time(m, m, t, plat);
  }
  EXPECT_TRUE(any_changed);
}

// Property (paper §III-A vs §VI): on generated scale-free matrices the
// analytic pick's *measured* total must land within a modest envelope of the
// best measured total over the whole candidate grid — the empirical pick of
// the paper's offline sweep. The analytic model can miss the argmin (that is
// why the online tuner exists) but must never pick catastrophically.
TEST(Threshold, AnalyticPickWithinMeasuredEnvelopeOfEmpirical) {
  const HeteroPlatform plat;
  ThreadPool pool(0);
  const struct {
    index_t rows;
    std::int64_t nnz;
    double alpha;
    std::uint64_t seed;
  } cases[] = {
      {900, 7200, 2.1, 71}, {1200, 9600, 2.7, 72}, {1000, 8000, 3.3, 73},
  };
  for (const auto& c : cases) {
    PowerLawGenConfig cfg;
    cfg.rows = c.rows;
    cfg.target_nnz = c.nnz;
    cfg.alpha = c.alpha;
    cfg.seed = c.seed;
    const CsrMatrix m = generate_power_law_matrix(cfg);
    const ThresholdSweep sweep = sweep_thresholds(m, m, plat);

    const auto measured_total = [&](offset_t t) {
      HhCpuOptions opt;
      opt.threshold_a = t;
      opt.threshold_b = t;
      const RunReport r = cost_hh_cpu(m, m, opt, plat, pool);
      return r.phase2_s + r.phase3_s + r.phase4_s + r.transfer_out_s;
    };
    double best_measured = std::numeric_limits<double>::infinity();
    for (const offset_t t : sweep.grid) {
      best_measured = std::min(best_measured, measured_total(t));
    }
    const double analytic_measured = measured_total(sweep.choice().t);
    EXPECT_LE(analytic_measured, best_measured * 1.25)
        << "alpha=" << c.alpha << " seed=" << c.seed
        << ": analytic t=" << sweep.choice().t << " measures "
        << analytic_measured << " vs best " << best_measured;
  }
}

}  // namespace
}  // namespace hh
