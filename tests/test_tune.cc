#include "tune/tuner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "core/hh_cpu.hpp"
#include "core/threshold.hpp"
#include "gen/powerlaw_gen.hpp"
#include "runtime/service.hpp"
#include "runtime/signature.hpp"
#include "tune/calibration.hpp"
#include "tune/report.hpp"
#include "util/json.hpp"

namespace hh {
namespace {

// ---------------------------------------------------------------- calibration

TEST(CalibrationStore, IdentityUntilMinSamples) {
  CalibrationConfig cfg;
  cfg.min_samples = 4;
  CalibrationStore store(cfg);
  for (int i = 0; i < 3; ++i) {
    store.record(CalibrationStore::Device::kCpu, 1.0, 2.0);
    EXPECT_EQ(store.correction(CalibrationStore::Device::kCpu), 1.0);
    EXPECT_TRUE(store.corrections().is_identity());
  }
  store.record(CalibrationStore::Device::kCpu, 1.0, 2.0);
  EXPECT_GT(store.correction(CalibrationStore::Device::kCpu), 1.0);
  EXPECT_FALSE(store.corrections().is_identity());
}

TEST(CalibrationStore, EwmaWarmStartAndConvergence) {
  CalibrationConfig cfg;
  cfg.decay = 0.9;
  cfg.min_samples = 1;
  CalibrationStore store(cfg);
  // First sample warm-starts the mean at its own log-ratio.
  store.record(CalibrationStore::Device::kGpu, 1.0, 2.0);
  EXPECT_NEAR(store.state(CalibrationStore::Device::kGpu).mean_log_ratio,
              std::log(2.0), 1e-12);
  // A long run of constant ratio converges the EWMA to that ratio.
  for (int i = 0; i < 200; ++i) {
    store.record(CalibrationStore::Device::kGpu, 1.0, 3.0);
  }
  EXPECT_NEAR(store.correction(CalibrationStore::Device::kGpu), 3.0, 0.05);
}

TEST(CalibrationStore, CorrectionClampedToConfiguredBand) {
  CalibrationConfig cfg;
  cfg.min_samples = 1;
  cfg.max_correction = 4.0;
  CalibrationStore store(cfg);
  for (int i = 0; i < 50; ++i) {
    store.record(CalibrationStore::Device::kH2D, 1.0, 100.0);  // ratio 100
    store.record(CalibrationStore::Device::kD2H, 100.0, 1.0);  // ratio 0.01
  }
  EXPECT_EQ(store.correction(CalibrationStore::Device::kH2D), 4.0);
  EXPECT_EQ(store.correction(CalibrationStore::Device::kD2H), 0.25);
}

TEST(CalibrationStore, NonPositivePairsIgnored) {
  CalibrationStore store;
  EXPECT_FALSE(store.record(CalibrationStore::Device::kCpu, 0.0, 1.0));
  EXPECT_FALSE(store.record(CalibrationStore::Device::kCpu, 1.0, 0.0));
  EXPECT_FALSE(store.record(CalibrationStore::Device::kCpu, -1.0, 2.0));
  EXPECT_EQ(store.total_samples(), 0);
  EXPECT_EQ(store.state(CalibrationStore::Device::kCpu).samples, 0);
}

TEST(CalibrationStore, DriftFlagsOnlyOnTransition) {
  CalibrationConfig cfg;
  cfg.min_samples = 2;
  cfg.drift_threshold = 0.25;
  cfg.decay = 0.5;  // fast EWMA so the test converges quickly
  CalibrationStore store(cfg);
  // Ratio 2.0: |log 2| = 0.69 > 0.25, so drift flags once min_samples hit.
  EXPECT_FALSE(store.record(CalibrationStore::Device::kCpu, 1.0, 2.0));
  const bool second = store.record(CalibrationStore::Device::kCpu, 1.0, 2.0);
  EXPECT_TRUE(second);  // the false -> true transition
  EXPECT_TRUE(store.state(CalibrationStore::Device::kCpu).drift);
  EXPECT_EQ(store.drift_events(), 1);
  EXPECT_EQ(store.drift_count(), 1);
  // Staying drifted is not a new event.
  EXPECT_FALSE(store.record(CalibrationStore::Device::kCpu, 1.0, 2.0));
  EXPECT_EQ(store.drift_events(), 1);
  // Accurate samples walk the mean back inside the band: flag clears, and a
  // later excursion is a fresh event.
  for (int i = 0; i < 20; ++i) {
    store.record(CalibrationStore::Device::kCpu, 1.0, 1.0);
  }
  EXPECT_FALSE(store.state(CalibrationStore::Device::kCpu).drift);
  for (int i = 0; i < 20; ++i) {
    store.record(CalibrationStore::Device::kCpu, 1.0, 2.0);
  }
  EXPECT_EQ(store.drift_events(), 2);
}

TEST(CalibrationStore, JsonDeterministicAndNamed) {
  CalibrationConfig cfg;
  cfg.min_samples = 1;
  CalibrationStore a(cfg), b(cfg);
  for (CalibrationStore* s : {&a, &b}) {
    s->record(CalibrationStore::Device::kCpu, 1.0, 1.25);
    s->record(CalibrationStore::Device::kGpu, 2.0, 1.0);
  }
  EXPECT_EQ(a.to_json(), b.to_json());
  EXPECT_NO_THROW(parse_json(a.to_json())) << a.to_json();
  EXPECT_NE(a.to_json().find("\"cpu\""), std::string::npos);
  EXPECT_NE(a.to_json().find("\"d2h\""), std::string::npos);
}

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
  cfg.explore_slack = 0.25;
  cfg.epsilon = 1.0;  // always explore when a target exists
  cfg.warmup_hits = 0;
  cfg.min_trials = 1;
  ThresholdTuner tuner(cfg);
  const PlanKey key{fake_sig(100, 2), fake_sig(100, 2)};
  // best = 1.0 at t=4; near-ties within 1.25x: t=6 (1.2). t=2 (2.0) and
  // t=8 (1.3) are out (1.3 > 1.25).
  tuner.admit(key, fake_sweep({2, 4, 6, 8}, {2.0, 1.0, 1.2, 1.3}));
  std::vector<offset_t> explored;
  for (int i = 0; i < 8; ++i) {
    const ThresholdTuner::Decision d = tuner.decide(key);
    if (d.explore) explored.push_back(d.t);
    tuner.observe(key, d.t, 1.0);
  }
  ASSERT_FALSE(explored.empty());
  for (const offset_t t : explored) EXPECT_EQ(t, 6);
}

TEST(ThresholdTuner, PromotionRequiresMarginAndMinTrials) {
  TuneConfig cfg;
  cfg.enabled = true;
  cfg.epsilon = 1.0;
  cfg.warmup_hits = 0;
  cfg.min_trials = 2;
  cfg.promote_margin = 0.05;
  ThresholdTuner tuner(cfg);
  const PlanKey key{fake_sig(100, 3), fake_sig(100, 3)};
  tuner.admit(key, fake_sweep({4, 6}, {1.0, 1.1}));
  EXPECT_EQ(tuner.incumbent(key), 4);

  // Incumbent measured once at 1.0.
  EXPECT_FALSE(tuner.observe(key, 4, 1.0).has_value());
  // First trial of t=6 is much better, but min_trials = 2: no promotion yet.
  EXPECT_FALSE(tuner.observe(key, 6, 0.80).has_value());
  // Second trial is only marginally better than the incumbent: the variant's
  // best (0.80) now clears margin with full trials -> promotion fires.
  const auto promo = tuner.observe(key, 6, 0.97);
  ASSERT_TRUE(promo.has_value());
  EXPECT_EQ(promo->from_t, 4);
  EXPECT_EQ(promo->to_t, 6);
  EXPECT_EQ(promo->version, 1u);
  EXPECT_DOUBLE_EQ(promo->to_best_s, 0.80);
  EXPECT_EQ(tuner.incumbent(key), 6);

  // No ping-pong: the old incumbent cannot win back without beating the new
  // best by the margin; an equal measurement does nothing.
  EXPECT_FALSE(tuner.observe(key, 4, 0.80).has_value());
  EXPECT_EQ(tuner.incumbent(key), 6);
}

TEST(ThresholdTuner, NoPromotionInsideMargin) {
  TuneConfig cfg;
  cfg.enabled = true;
  cfg.min_trials = 1;
  cfg.promote_margin = 0.05;
  ThresholdTuner tuner(cfg);
  const PlanKey key{fake_sig(100, 4), fake_sig(100, 4)};
  tuner.admit(key, fake_sweep({4, 6}, {1.0, 1.1}));
  tuner.observe(key, 4, 1.00);
  // 2% better: inside the 5% margin, stays put (measurement noise guard).
  EXPECT_FALSE(tuner.observe(key, 6, 0.98).has_value());
  EXPECT_EQ(tuner.incumbent(key), 4);
  EXPECT_EQ(tuner.promotions(), 0);
}

TEST(ThresholdTuner, ConvergesWhenAllVariantsMeasured) {
  TuneConfig cfg;
  cfg.enabled = true;
  cfg.epsilon = 1.0;
  cfg.warmup_hits = 0;
  cfg.min_trials = 1;
  ThresholdTuner tuner(cfg);
  const PlanKey key{fake_sig(100, 5), fake_sig(100, 5)};
  tuner.admit(key, fake_sweep({4, 6, 8}, {1.0, 1.05, 1.1}));
  for (int i = 0; i < 10; ++i) {
    const ThresholdTuner::Decision d = tuner.decide(key);
    tuner.observe(key, d.t, 1.0 + 0.01 * d.t);
  }
  const TuneReport rep = tuner.report();
  ASSERT_EQ(rep.entries.size(), 1u);
  EXPECT_TRUE(rep.entries[0].converged);
  EXPECT_EQ(rep.entries_converged, 1u);
  // A converged entry always exploits.
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(tuner.decide(key).explore);
  }
}

TEST(ThresholdTuner, DeterministicAcrossInstances) {
  TuneConfig cfg;
  cfg.enabled = true;
  cfg.epsilon = 0.5;
  cfg.warmup_hits = 0;
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
  EXPECT_EQ(t1.report().to_json(), t2.report().to_json());
  EXPECT_NO_THROW(parse_json(t1.report().to_json())) << t1.report().to_json();
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
  EXPECT_TRUE(rep.entries.empty());
  EXPECT_EQ(rep.decisions, 0);
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
  ASSERT_EQ(rep.entries.size(), 1u);
  const TuneEntryReport& e = rep.entries[0];
  EXPECT_TRUE(e.converged);
  ASSERT_FALSE(e.variants.empty());

  // The incumbent is the argmin over every measured variant, and it is at
  // least as good as the analytic starting point's measured total.
  double best = std::numeric_limits<double>::infinity();
  offset_t best_t = 0;
  double analytic_best = std::numeric_limits<double>::infinity();
  double incumbent_best = std::numeric_limits<double>::infinity();
  for (const TuneVariantReport& v : e.variants) {
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
  EXPECT_LE(incumbent_best, best * (1 + cfg.tune.promote_margin));
  (void)best_t;

  // On this instance the analytic pick is wrong and the tuner must have
  // found a measurably better threshold and promoted it.
  EXPECT_GE(rep.promotions, 1);
  EXPECT_NE(e.incumbent_t, e.analytic_t);
  EXPECT_GE(e.version, 1u);
  EXPECT_EQ(service.metrics().counter("tune.promotions").value(),
            rep.promotions);
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
    req.options.threshold_a = 5;  // caller's explicit choice
    req.options.threshold_b = 5;
    service.submit(std::move(req));
  }
  service.drain();
  const TuneReport rep = service.tune_report();
  EXPECT_TRUE(rep.entries.empty());
  EXPECT_EQ(rep.decisions, 0);
  EXPECT_EQ(rep.measurements, 0);
}

}  // namespace
}  // namespace hh
