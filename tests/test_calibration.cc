// Reproduction-shape guardrails: the headline relationships of the paper's
// evaluation must hold on representative analogues. These run at a small
// scale so the whole suite stays fast; the bench harness reproduces the full
// figures. Bands are deliberately wide — they pin the *shape* (who wins, by
// roughly what factor), not exact numbers.
#include <gtest/gtest.h>

#include <vector>

#include "core/baselines.hpp"
#include "core/hh_cpu.hpp"
#include "core/threshold.hpp"
#include "gen/datasets.hpp"
#include "test_util.hpp"

namespace hh {
namespace {

constexpr double kScale = 0.04;

class CalibrationTest : public testing::Test {
 protected:
  CalibrationTest() : plat_(make_scaled_platform(kScale)), pool_(2) {}

  RunResult best_hh(const CsrMatrix& a) {
    const ThresholdChoice c = pick_threshold_empirical(a, a, plat_, pool_);
    HhCpuOptions opt;
    opt.threshold_a = c.t;
    opt.threshold_b = c.t;
    return run_hh_cpu(a, a, opt, plat_, pool_);
  }

  HeteroPlatform plat_;
  ThreadPool pool_;
};

TEST_F(CalibrationTest, HhBeatsHipc2012OnStronglyScaleFreeMatrices) {
  // The α ≈ 2.1 matrices show the largest gains in the paper (~37%).
  for (const char* name : {"webbase-1M", "email-Enron"}) {
    const CsrMatrix a = make_dataset(dataset_spec(name), kScale);
    const RunResult hh = best_hh(a);
    const RunResult hipc = run_hipc2012(a, a, plat_, pool_);
    const double speedup = hipc.report.total_s / hh.report.total_s;
    EXPECT_GT(speedup, 1.10) << name;
    EXPECT_LT(speedup, 2.20) << name;
  }
}

TEST_F(CalibrationTest, GainSmallOnNonScaleFreeMatrices) {
  // roadNet-CA / p2p-Gnutella31: the paper reports only ~5%; the shape
  // criterion is "no big win, no big loss".
  for (const char* name : {"roadNet-CA", "p2p-Gnutella31"}) {
    const CsrMatrix a = make_dataset(dataset_spec(name), kScale);
    const RunResult hh = best_hh(a);
    const RunResult hipc = run_hipc2012(a, a, plat_, pool_);
    const double speedup = hipc.report.total_s / hh.report.total_s;
    EXPECT_GT(speedup, 0.70) << name;
    EXPECT_LT(speedup, 1.35) << name;
  }
}

TEST_F(CalibrationTest, HhFarAheadOfLibraryBaselines) {
  // Fig. 6: ~3.6x vs MKL and ~4x vs cuSPARSE on the scale-free suite.
  const CsrMatrix a = make_dataset(dataset_spec("webbase-1M"), kScale);
  const RunResult hh = best_hh(a);
  const double vs_mkl = run_cpu_only_mkl(a, a, plat_, pool_).report.total_s /
                        hh.report.total_s;
  const double vs_cusp =
      run_gpu_only_cusparse(a, a, plat_, pool_).report.total_s /
      hh.report.total_s;
  EXPECT_GT(vs_mkl, 2.0);
  EXPECT_LT(vs_mkl, 7.0);
  EXPECT_GT(vs_cusp, 2.0);
  EXPECT_LT(vs_cusp, 7.0);
}

TEST_F(CalibrationTest, HhBeatsBothWorkqueueVariants) {
  // Fig. 9: ~15% over Unsorted-/Sorted-Workqueue on scale-free inputs.
  const CsrMatrix a = make_dataset(dataset_spec("web-Google"), kScale);
  const RunResult hh = best_hh(a);
  const double vs_uns =
      run_unsorted_workqueue(a, a, {}, plat_, pool_).report.total_s /
      hh.report.total_s;
  const double vs_srt =
      run_sorted_workqueue(a, a, {}, plat_, pool_).report.total_s /
      hh.report.total_s;
  EXPECT_GT(vs_uns, 1.02);
  EXPECT_GT(vs_srt, 1.02);
}

TEST_F(CalibrationTest, PhasesTwoAndThreeDominate) {
  // Fig. 7: Phases II + III are the bulk of the time; I + IV are overhead.
  const CsrMatrix a = make_dataset(dataset_spec("web-Google"), kScale);
  const RunResult hh = best_hh(a);
  const RunReport& r = hh.report;
  const double work = r.phase2_s + r.phase3_s;
  const double overhead = r.phase1_s + r.phase4_s;
  EXPECT_GT(work, 10.0 * overhead);
}

TEST_F(CalibrationTest, ThresholdSweepIsConvexish) {
  // Fig. 8: time at the extremes exceeds the best interior time.
  const CsrMatrix a = make_dataset(dataset_spec("webbase-1M"), kScale);
  double best = -1, t0_time = -1, tmax_time = -1;
  const auto cand = threshold_candidates(a);
  const std::vector<RunReport> sweep =
      cost_hh_cpu_grid(a, a, cand, {}, plat_, pool_);
  for (std::size_t g = 0; g < cand.size(); ++g) {
    const double total = sweep[g].total_s;
    if (best < 0 || total < best) best = total;
    if (g == 0) t0_time = total;
    if (g + 1 == cand.size()) tmax_time = total;
  }
  EXPECT_GT(t0_time, best);
  EXPECT_GT(tmax_time, best);
}

}  // namespace
}  // namespace hh
