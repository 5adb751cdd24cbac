#include "tune/tuner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "core/hh_cpu.hpp"
#include "core/threshold.hpp"
#include "gen/powerlaw_gen.hpp"
#include "runtime/service.hpp"
#include "runtime/signature.hpp"
#include "tune/report.hpp"
#include "util/json.hpp"

namespace hh {
namespace {

// --------------------------------------------------------------------- tuner

MatrixSignature fake_sig(index_t rows, std::uint64_t salt) {
  MatrixSignature s;
  s.rows = rows;
  s.cols = rows;
  s.nnz = rows * 4;
  s.degree_digest = salt * 0x9e3779b97f4a7c15ull;
  return s;
}

ThresholdSweep fake_sweep(std::vector<offset_t> grid,
                          std::vector<double> predicted) {
  ThresholdSweep s;
  s.grid = std::move(grid);
  s.predicted_s = std::move(predicted);
  s.best = static_cast<std::size_t>(
      std::min_element(s.predicted_s.begin(), s.predicted_s.end()) -
      s.predicted_s.begin());
  return s;
}

TEST(ThresholdTuner, AdmitServesAnalyticPickAndIsIdempotent) {
  ThresholdTuner tuner;
  const PlanKey key{fake_sig(100, 1), fake_sig(100, 1)};
  tuner.admit(key, fake_sweep({2, 4, 8}, {3.0, 1.0, 2.0}));
  EXPECT_TRUE(tuner.has_entry(key));
  EXPECT_EQ(tuner.incumbent(key), 4);
  // Re-admitting is a no-op: the measured history is never thrown away.
  tuner.admit(key, fake_sweep({2, 4, 8}, {1.0, 3.0, 2.0}));
  EXPECT_EQ(tuner.incumbent(key), 4);
  EXPECT_EQ(tuner.entries(), 1u);
}

TEST(ThresholdTuner, ExplorePlanOnlyNearTies) {
  TuneConfig cfg;
  cfg.enabled = true;
  ThresholdTuner tuner(cfg);
  const PlanKey key{fake_sig(100, 2), fake_sig(100, 2)};
  // best = 1.0 at t=4; near-ties within 1 + kExploreSlack = 1.25x: t=6
  // (1.2). t=2 (2.0) and t=8 (1.3) are out (1.3 > 1.25).
  static_assert(TuneConfig::kExploreSlack == 0.25);
  tuner.admit(key, fake_sweep({2, 4, 6, 8}, {2.0, 1.0, 1.2, 1.3}));
  std::vector<offset_t> explored;
  for (int i = 0; i < 32; ++i) {
    const ThresholdTuner::Decision d = tuner.decide(key);
    if (d.explore) explored.push_back(d.t);
    tuner.observe(key, d.t, 1.0);
  }
  ASSERT_FALSE(explored.empty());
  for (const offset_t t : explored) EXPECT_EQ(t, 6);
}

TEST(ThresholdTuner, PromotionRequiresMarginAndMinTrials) {
  ThresholdTuner tuner;
  const PlanKey key{fake_sig(100, 3), fake_sig(100, 3)};
  tuner.admit(key, fake_sweep({4, 6}, {1.0, 1.1}));
  EXPECT_EQ(tuner.incumbent(key), 4);

  // Incumbent measured once at 1.0.
  EXPECT_FALSE(tuner.observe(key, 4, 1.0).has_value());
  // The first trial of t=6 is much better, but until t=6 has kMinTrials
  // trials there is no promotion.
  EXPECT_FALSE(tuner.observe(key, 6, 0.80).has_value());
  for (int i = 2; i < TuneConfig::kMinTrials; ++i) {
    EXPECT_FALSE(tuner.observe(key, 6, 0.99).has_value());
  }
  // The last trial is only marginally better than the incumbent: the
  // variant's best (0.80) now clears the margin with full trials ->
  // promotion fires.
  const auto promo = tuner.observe(key, 6, 0.99);
  ASSERT_TRUE(promo.has_value());
  EXPECT_EQ(promo->from_t, 4);
  EXPECT_EQ(promo->to_t, 6);
  EXPECT_EQ(promo->version, 1u);
  EXPECT_DOUBLE_EQ(promo->to_best_s, 0.80);
  EXPECT_EQ(tuner.incumbent(key), 6);

  // No ping-pong: the old incumbent cannot win back without beating the new
  // best by the margin; equal measurements over full trials do nothing.
  for (int i = 1; i < TuneConfig::kMinTrials; ++i) {
    EXPECT_FALSE(tuner.observe(key, 4, 0.80).has_value());
  }
  EXPECT_EQ(tuner.incumbent(key), 6);
}

TEST(ThresholdTuner, NoPromotionInsideMargin) {
  ThresholdTuner tuner;
  const PlanKey key{fake_sig(100, 4), fake_sig(100, 4)};
  tuner.admit(key, fake_sweep({4, 6}, {1.0, 1.1}));
  tuner.observe(key, 4, 1.00);
  // Half the margin better, over full trials: inside kPromoteMargin, stays
  // put (measurement noise guard).
  const double inside = 1.0 - TuneConfig::kPromoteMargin / 2;
  for (int i = 0; i < TuneConfig::kMinTrials; ++i) {
    EXPECT_FALSE(tuner.observe(key, 6, inside).has_value());
  }
  EXPECT_EQ(tuner.incumbent(key), 4);
  EXPECT_EQ(tuner.promotions(), 0);
}

TEST(ThresholdTuner, ConvergesWhenAllVariantsMeasured) {
  TuneConfig cfg;
  cfg.enabled = true;
  ThresholdTuner tuner(cfg);
  const PlanKey key{fake_sig(100, 5), fake_sig(100, 5)};
  tuner.admit(key, fake_sweep({4, 6, 8}, {1.0, 1.05, 1.1}));
  for (int i = 0; i < 64; ++i) {
    const ThresholdTuner::Decision d = tuner.decide(key);
    tuner.observe(key, d.t, 1.0 + 0.01 * d.t);
  }
  const TunerSnapshot snap = tuner.snapshot();
  ASSERT_EQ(snap.entries.size(), 1u);
  EXPECT_TRUE(snap.entries[0].converged);
  EXPECT_EQ(tuner.converged(), 1u);
  // A converged entry always exploits.
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(tuner.decide(key).explore);
  }
}

TEST(ThresholdTuner, DeterministicAcrossInstances) {
  TuneConfig cfg;
  cfg.enabled = true;
  ThresholdTuner t1(cfg), t2(cfg);
  const PlanKey key{fake_sig(100, 6), fake_sig(100, 6)};
  for (ThresholdTuner* t : {&t1, &t2}) {
    t->admit(key, fake_sweep({2, 4, 6, 8}, {1.2, 1.0, 1.05, 1.1}));
  }
  for (int i = 0; i < 32; ++i) {
    const ThresholdTuner::Decision d1 = t1.decide(key);
    const ThresholdTuner::Decision d2 = t2.decide(key);
    EXPECT_EQ(d1.t, d2.t);
    EXPECT_EQ(d1.explore, d2.explore);
    t1.observe(key, d1.t, 1.0 + 0.001 * i);
    t2.observe(key, d2.t, 1.0 + 0.001 * i);
  }
  const std::string j1 = TuneReport{true, t1.snapshot()}.to_json();
  EXPECT_EQ(j1, (TuneReport{true, t2.snapshot()}.to_json()));
  EXPECT_NO_THROW(parse_json(j1)) << j1;
  EXPECT_EQ(t1.snapshot().rng_state, t2.snapshot().rng_state);
}

TEST(TuneReport, DisabledRendersAsDisabled) {
  TuneReport rep;
  rep.enabled = false;
  EXPECT_NE(rep.to_string().find("disabled"), std::string::npos);
  EXPECT_NE(rep.to_json().find("\"enabled\":false"), std::string::npos);
  EXPECT_NO_THROW(parse_json(rep.to_json())) << rep.to_json();
}

// ------------------------------------------------------------ service level

CsrMatrix tune_matrix() {
  // A steep-tail, low-density instance where the analytic pick is measurably
  // non-optimal (the harmonic Phase III model overrates the GPU share on
  // short rows) — the case the tuner exists to correct.
  PowerLawGenConfig cfg;
  cfg.rows = 2000;
  cfg.target_nnz = 16000;
  cfg.alpha = 3.0;
  cfg.seed = 24;
  return generate_power_law_matrix(cfg);
}

TEST(ServiceTuning, DisabledTunerChangesNothing) {
  const HeteroPlatform platform = make_scaled_platform(0.1);
  ThreadPool pool(0);
  const CsrMatrix m = tune_matrix();

  SpgemmService plain(platform, pool);
  SpgemmService::Config cfg;  // tune.enabled defaults to false
  SpgemmService configured(platform, pool, cfg);
  for (SpgemmService* s : {&plain, &configured}) {
    for (int i = 0; i < 12; ++i) {
      SpgemmRequest req;
      req.a = &m;
      s->submit(std::move(req));
    }
  }
  const BatchResult r1 = plain.drain();
  const BatchResult r2 = configured.drain();
  EXPECT_EQ(r1.batch.to_json(), r2.batch.to_json());
  const TuneReport rep = plain.tune_report();
  EXPECT_FALSE(rep.enabled);
  EXPECT_TRUE(rep.tuner.entries.empty());
  EXPECT_EQ(rep.tuner.decisions, 0);
}

TEST(ServiceTuning, ConvergesToMeasuredBestWithinOneBatch) {
  const HeteroPlatform platform = make_scaled_platform(0.1);
  ThreadPool pool(0);
  const CsrMatrix m = tune_matrix();

  SpgemmService::Config cfg;
  cfg.tune.enabled = true;
  SpgemmService service(platform, pool, cfg);
  constexpr int kRequests = 64;
  for (int i = 0; i < kRequests; ++i) {
    SpgemmRequest req;
    req.a = &m;
    service.submit(std::move(req));
  }
  const BatchResult batch = service.drain();
  ASSERT_EQ(batch.results.size(), static_cast<std::size_t>(kRequests));

  const TuneReport rep = service.tune_report();
  ASSERT_EQ(rep.tuner.entries.size(), 1u);
  const TunerSnapshot::Entry& e = rep.tuner.entries[0];
  EXPECT_TRUE(e.converged);
  ASSERT_FALSE(e.variants.empty());

  // The incumbent is the argmin over every measured variant, and it is at
  // least as good as the analytic starting point's measured total.
  double best = std::numeric_limits<double>::infinity();
  offset_t best_t = 0;
  double analytic_best = std::numeric_limits<double>::infinity();
  double incumbent_best = std::numeric_limits<double>::infinity();
  for (const TunerSnapshot::Variant& v : e.variants) {
    if (v.best_s < best) {
      best = v.best_s;
      best_t = v.t;
    }
    if (v.t == e.analytic_t) analytic_best = v.best_s;
    if (v.t == e.incumbent_t) incumbent_best = v.best_s;
  }
  EXPECT_LE(incumbent_best, analytic_best);
  // Within the promotion margin, the incumbent IS the measured best (exact
  // argmin may sit inside the margin band of the incumbent).
  EXPECT_LE(incumbent_best, best * (1 + TuneConfig::kPromoteMargin));
  (void)best_t;

  // On this instance the analytic pick is wrong and the tuner must have
  // found a measurably better threshold and promoted it.
  EXPECT_GE(rep.tuner.promotions, 1);
  EXPECT_NE(e.incumbent_t, e.analytic_t);
  EXPECT_GE(e.version, 1u);
  EXPECT_EQ(service.metrics().counter("tune.promotions").value(),
            rep.tuner.promotions);
}

TEST(ServiceTuning, SameSeedReplayIsByteIdentical) {
  const HeteroPlatform platform = make_scaled_platform(0.1);
  ThreadPool pool(0);
  const CsrMatrix m = tune_matrix();

  const auto run = [&]() {
    SpgemmService::Config cfg;
    cfg.tune.enabled = true;
    SpgemmService service(platform, pool, cfg);
    for (int i = 0; i < 24; ++i) {
      SpgemmRequest req;
      req.a = &m;
      service.submit(std::move(req));
    }
    const BatchResult batch = service.drain();
    return std::pair{batch.batch.to_json(),
                     service.tune_report().to_json()};
  };
  const auto [batch1, tune1] = run();
  const auto [batch2, tune2] = run();
  EXPECT_EQ(batch1, batch2);
  EXPECT_EQ(tune1, tune2);
}

TEST(ServiceTuning, TunedOutputsBitIdenticalToSerialAtChosenThresholds) {
  const HeteroPlatform platform = make_scaled_platform(0.1);
  ThreadPool pool(0);
  const CsrMatrix m = tune_matrix();

  SpgemmService::Config cfg;
  cfg.tune.enabled = true;
  SpgemmService service(platform, pool, cfg);
  for (int i = 0; i < 16; ++i) {
    SpgemmRequest req;
    req.a = &m;
    service.submit(std::move(req));
  }
  const BatchResult batch = service.drain();
  for (const RunResult& res : batch.results) {
    HhCpuOptions opt;
    opt.threshold_a = res.report.threshold_a;
    opt.threshold_b = res.report.threshold_b;
    const RunResult serial = run_hh_cpu(m, m, opt, platform, pool);
    EXPECT_EQ(serial.c.indptr, res.c.indptr);
    EXPECT_EQ(serial.c.indices, res.c.indices);
    EXPECT_EQ(serial.c.values, res.c.values);
  }
}

TEST(ServiceTuning, LateAdmissionRanksTheUncorrectedSweep) {
  // A signature pair first seen after another pair's clean requests were
  // measured is admitted with the analytic sweep as it is: nothing measured
  // earlier reweights its ranking, and its first request is served the
  // analytic pick.
  const HeteroPlatform platform = make_scaled_platform(0.1);
  ThreadPool pool(0);
  const CsrMatrix first = tune_matrix();
  PowerLawGenConfig gen;
  gen.rows = 1500;
  gen.target_nnz = 12000;
  gen.alpha = 2.4;
  gen.seed = 25;
  const CsrMatrix second = generate_power_law_matrix(gen);

  SpgemmService::Config cfg;
  cfg.tune.enabled = true;
  SpgemmService service(platform, pool, cfg);
  for (int i = 0; i < 12; ++i) {
    SpgemmRequest req;
    req.a = &first;
    service.submit(std::move(req));
  }
  service.drain();
  ASSERT_GE(service.tune_report().tuner.measurements, 8);

  SpgemmRequest req;
  req.a = &second;
  service.submit(std::move(req));
  const BatchResult late = service.drain();
  const TuneReport rep = service.tune_report();
  ASSERT_EQ(rep.tuner.entries.size(), 2u);
  const TunerSnapshot::Entry& e = rep.tuner.entries[1];
  const ThresholdSweep sweep = sweep_thresholds(second, second, platform);
  EXPECT_EQ(e.grid, sweep.grid);
  ASSERT_EQ(e.predicted_s.size(), sweep.predicted_s.size());
  for (std::size_t i = 0; i < sweep.predicted_s.size(); ++i) {
    EXPECT_EQ(e.predicted_s[i], sweep.predicted_s[i]) << "t=" << sweep.grid[i];
  }
  const offset_t analytic = pick_threshold_analytic(second, second, platform).t;
  EXPECT_EQ(e.analytic_t, analytic);
  ASSERT_EQ(late.results.size(), 1u);
  EXPECT_EQ(late.results[0].report.threshold_a, analytic);
  EXPECT_EQ(late.results[0].report.threshold_b, analytic);
}

TEST(ServiceTuning, PinnedThresholdsBypassTheTuner) {
  const HeteroPlatform platform = make_scaled_platform(0.1);
  ThreadPool pool(0);
  const CsrMatrix m = tune_matrix();

  SpgemmService::Config cfg;
  cfg.tune.enabled = true;
  SpgemmService service(platform, pool, cfg);
  for (int i = 0; i < 8; ++i) {
    SpgemmRequest req;
    req.a = &m;
    req.threshold_a = 5;  // caller's explicit choice
    req.threshold_b = 5;
    service.submit(std::move(req));
  }
  service.drain();
  const TuneReport rep = service.tune_report();
  EXPECT_TRUE(rep.tuner.entries.empty());
  EXPECT_EQ(rep.tuner.decisions, 0);
  EXPECT_EQ(rep.tuner.measurements, 0);
}

}  // namespace
}  // namespace hh
