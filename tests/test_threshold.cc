#include "core/threshold.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "core/hh_cpu.hpp"
#include "gen/datasets.hpp"
#include "gen/powerlaw_gen.hpp"
#include "sparse/partition.hpp"
#include "sparse/row_stats.hpp"
#include "spgemm/spgemm.hpp"
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
  const ThresholdSweep sweep = sweep_thresholds(m, m, plat);
  ASSERT_EQ(sweep.grid, threshold_candidates(m));
  for (const double p : sweep.predicted_s) EXPECT_GT(p, 0.0);
}

TEST(Threshold, AnalyticPickIsArgminOfPrediction) {
  const CsrMatrix m = make_dataset(dataset_spec("ca-CondMat"), 0.1);
  const HeteroPlatform plat;
  const ThresholdChoice choice = pick_threshold_analytic(m, m, plat);
  const ThresholdSweep sweep = sweep_thresholds(m, m, plat);
  ASSERT_EQ(sweep.grid, threshold_candidates(m));
  for (const double p : sweep.predicted_s) {
    EXPECT_LE(choice.predicted_s, p + 1e-12);
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

TEST(Threshold, SweepMatchesAnalyticPick) {
  const CsrMatrix m = make_dataset(dataset_spec("wiki-Vote"), 0.08);
  const HeteroPlatform plat;
  const ThresholdSweep sweep = sweep_thresholds(m, m, plat);
  ASSERT_EQ(sweep.grid.size(), sweep.predicted_s.size());
  ASSERT_LT(sweep.best, sweep.grid.size());
  for (std::size_t i = 0; i < sweep.grid.size(); ++i) {
    EXPECT_LE(sweep.predicted_s[sweep.best], sweep.predicted_s[i]);
  }
  const ThresholdChoice analytic = pick_threshold_analytic(m, m, plat);
  EXPECT_EQ(analytic.t, sweep.choice().t);
  EXPECT_EQ(analytic.predicted_s, sweep.choice().predicted_s);
}

// The analytic sweep per candidate, as two classify_rows and up to four
// estimate_partial_product walks over A. The one-walk sweep must equal its
// total bit for bit at every grid point.
double reference_total(const CsrMatrix& a, const CsrMatrix& b, offset_t t,
                       const HeteroPlatform& platform) {
  const RowPartition pa = classify_rows(a, t);
  const RowPartition pb = classify_rows(b, t);

  const double ws_bh = 12.0 * static_cast<double>(pb.high_nnz);
  const double ws_bl = 12.0 * static_cast<double>(pb.low_nnz);

  const ProductStats hh =
      (pa.high_count() > 0 && pb.high_count() > 0)
          ? estimate_partial_product(a, b, pa.high_rows, pb.is_high, true)
          : ProductStats{};
  const ProductStats ll =
      (pa.low_count() > 0 && pb.low_count() > 0)
          ? estimate_partial_product(a, b, pa.low_rows, pb.is_high, false)
          : ProductStats{};
  const double t2_cpu =
      platform.cpu().kernel_time(hh, ws_bh, true, /*blockable=*/true);
  double t2_gpu = platform.gpu().kernel_time(ll);
  if (ll.flops > 0 || pa.high_count() < a.rows || pb.high_count() < b.rows) {
    double transfer_in = platform.link().h2d().matrix_transfer_time(a);
    if (&a != &b) transfer_in += platform.link().h2d().matrix_transfer_time(b);
    t2_gpu += transfer_in;
  }
  const double t2 = HeteroPlatform::overlap(t2_cpu, t2_gpu);

  const ProductStats lh =
      pb.high_count() > 0
          ? estimate_partial_product(a, b, pa.low_rows, pb.is_high, true)
          : ProductStats{};
  const ProductStats hl =
      pb.low_count() > 0
          ? estimate_partial_product(a, b, pa.high_rows, pb.is_high, false)
          : ProductStats{};
  ProductStats p3 = lh;
  p3.accumulate(hl);
  const double t3_cpu =
      platform.cpu().kernel_time(lh, ws_bh, true, /*blockable=*/true) +
      platform.cpu().kernel_time(hl, ws_bl, true, /*blockable=*/false);
  const double t3_gpu = platform.gpu().kernel_time(p3);
  const double t3 = (t3_cpu <= 0 || t3_gpu <= 0)
                        ? std::max(t3_cpu, t3_gpu)
                        : t3_cpu * t3_gpu / (t3_cpu + t3_gpu);

  const std::int64_t tuples = hh.tuples + ll.tuples + p3.tuples;
  const double t4 = platform.cpu().merge_time(tuples);
  double gpu_tuples = static_cast<double>(ll.tuples);
  if (t3_gpu > 0) gpu_tuples += static_cast<double>(p3.tuples) * t3 / t3_gpu;
  const double t_out =
      platform.link().d2h().transfer_time(16.0 * gpu_tuples);
  return t2 + t3 + t4 + t_out;
}

// Every ProductStats field, for whole-struct comparison.
std::vector<std::int64_t> fields(const ProductStats& s) {
  return {s.rows, s.a_nnz, s.flops, s.tuples, s.max_row_flops,
          s.warp_alu, s.flops_shared, s.flops_global, s.b_read_bytes};
}

// sweep_thresholds' totals and argmin against reference_total, and every
// estimate_splits_on_grid entry against the four estimate_partial_product
// walks and the classify_rows sizes, at every grid point.
void expect_sweep_matches_reference(const CsrMatrix& a, const CsrMatrix& b,
                                    const HeteroPlatform& plat,
                                    const std::string& what) {
  const ThresholdSweep sweep = sweep_thresholds(a, b, plat);
  ASSERT_EQ(sweep.grid, threshold_grid(a, b)) << what;
  ASSERT_EQ(sweep.predicted_s.size(), sweep.grid.size()) << what;
  const std::vector<SplitEstimate> splits =
      estimate_splits_on_grid(a, b, sweep.grid);
  ASSERT_EQ(splits.size(), sweep.grid.size()) << what;
  std::size_t first_best = 0;
  std::vector<double> want_totals;
  for (std::size_t g = 0; g < sweep.grid.size(); ++g) {
    const offset_t t = sweep.grid[g];
    const std::string at = what + " t=" + std::to_string(t);
    const double want = reference_total(a, b, t, plat);
    EXPECT_EQ(sweep.predicted_s[g], want) << at;
    want_totals.push_back(want);
    if (want < want_totals[first_best]) first_best = g;

    const RowPartition pa = classify_rows(a, t);
    const RowPartition pb = classify_rows(b, t);
    const SplitEstimate& got = splits[g];
    const std::vector<index_t>* rows[2] = {&pa.low_rows, &pa.high_rows};
    for (const int x : {0, 1}) {
      for (const int y : {0, 1}) {
        EXPECT_EQ(fields(got.by_side[x][y]),
                  fields(estimate_partial_product(a, b, *rows[x], pb.is_high,
                                                  y == 1)))
            << at << " by_side[" << x << "][" << y << "]";
      }
    }
    EXPECT_EQ(got.a_rows[1], pa.high_count()) << at;
    EXPECT_EQ(got.a_rows[0], pa.low_count()) << at;
    EXPECT_EQ(got.b_rows[1], pb.high_count()) << at;
    EXPECT_EQ(got.b_rows[0], pb.low_count()) << at;
    EXPECT_EQ(got.b_nnz[1], pb.high_nnz) << at;
    EXPECT_EQ(got.b_nnz[0], pb.low_nnz) << at;
  }
  EXPECT_EQ(sweep.best, first_best) << what;
}

TEST(ThresholdReference, OneWalkSweepMatchesOnTableOneAnalogues) {
  // A scaled platform shrinks the shared-accumulator cap, so rows land on
  // both sides of the shared/global flops split.
  constexpr double kScale = 0.04;
  const HeteroPlatform plat = make_scaled_platform(kScale);
  for (const char* name : {"wiki-Vote", "ca-CondMat", "email-Enron"}) {
    const CsrMatrix a = make_dataset(dataset_spec(name), kScale);
    expect_sweep_matches_reference(a, a, plat, name);
  }
  set_shared_accum_cap(kSharedAccumCap);
}

TEST(ThresholdReference, OneWalkSweepMatchesOnDistinctOperands) {
  const HeteroPlatform plat;
  PowerLawGenConfig cfg;
  cfg.rows = 700;
  cfg.alpha = 2.3;
  cfg.target_nnz = 4200;
  cfg.seed = 221;
  const CsrMatrix a = generate_power_law_matrix(cfg);
  cfg.seed = 222;
  const CsrMatrix b = generate_power_law_matrix(cfg);
  expect_sweep_matches_reference(a, b, plat, "power-law pair");
  const CsrMatrix c = test::random_csr(60, 40, 0.1, 223);
  const CsrMatrix d = test::random_csr(40, 70, 0.1, 224);
  expect_sweep_matches_reference(c, d, plat, "rectangular chain");
}

TEST(ThresholdReference, OneWalkSweepMatchesOnDegenerateMatrices) {
  const HeteroPlatform plat;
  // Every row has the same length: the 2-point fallback grid.
  const CsrMatrix ring = csr_from_triplets(
      4, 4, std::vector<index_t>{0, 0, 1, 1, 2, 2, 3, 3},
      std::vector<index_t>{0, 1, 1, 2, 2, 3, 3, 0},
      std::vector<value_t>{1, 2, 3, 4, 5, 6, 7, 8});
  ASSERT_EQ(threshold_grid(ring, ring).size(), 2u);
  expect_sweep_matches_reference(ring, ring, plat, "equal rows");
  const CsrMatrix zero(30, 30);
  expect_sweep_matches_reference(zero, zero, plat, "no nonzeros");
}

TEST(ThresholdReference, PredictionRejectsThresholdBelowOne) {
  const CsrMatrix m = test::random_csr(30, 30, 0.1, 225);
  const HeteroPlatform plat;
  const offset_t below_one[] = {0};
  EXPECT_THROW(estimate_splits_on_grid(m, m, below_one), CheckError);
  const CsrMatrix wide(3, 4);
  const offset_t two[] = {2};
  EXPECT_THROW(estimate_splits_on_grid(wide, wide, two), CheckError);
  EXPECT_THROW(sweep_thresholds(wide, wide, plat), CheckError);
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

    const std::vector<RunReport> runs =
        cost_hh_cpu_grid(m, m, sweep.grid, {}, plat, pool);
    const auto measured_total = [&](std::size_t g) {
      const RunReport& r = runs[g];
      return r.phase2_s + r.phase3_s + r.phase4_s + r.transfer_out_s;
    };
    double best_measured = std::numeric_limits<double>::infinity();
    for (std::size_t g = 0; g < sweep.grid.size(); ++g) {
      best_measured = std::min(best_measured, measured_total(g));
    }
    const double analytic_measured = measured_total(sweep.best);
    EXPECT_LE(analytic_measured, best_measured * 1.25)
        << "alpha=" << c.alpha << " seed=" << c.seed
        << ": analytic t=" << sweep.choice().t << " measures "
        << analytic_measured << " vs best " << best_measured;
  }
}

}  // namespace
}  // namespace hh
