// Critical-path profiler (obs/critpath.hpp) and perf-baseline gate
// (obs/perf_baseline.hpp): hand-built recorder chains with known answers,
// the sum-to-makespan property on real drains, bottleneck flips driven by
// the PCIe cost model, sharded rollup reconciliation, and the tolerance-band
// comparator bench_compare wraps.
#include "obs/critpath.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <string_view>
#include <vector>

#include "obs/perf_baseline.hpp"
#include "runtime/service.hpp"
#include "shard/sharded_service.hpp"
#include "test_util.hpp"
#include "util/format.hpp"
#include "util/json.hpp"
#include "util/status.hpp"

namespace hh {
namespace {

double lane_sum(const double (&attributed)[kCritLaneCount]) {
  double total = 0;
  for (int i = 0; i < kCritLaneCount; ++i) total += attributed[i];
  return total;
}

// One hand-built placement for the request in scope: `stage` on `r`,
// runnable at `requested`, granted [start, end).
void place(TraceRecorder& log, const char* stage, Resource r,
           double requested, double start, double end) {
  log.span(TraceCategory::kCompute, stage, r, start, end, requested);
}

// ------------------------------------------------- hand-built chains

TEST(CritPath, CpuBoundChainChargesEveryLaneItCovers) {
  TraceRecorder log;
  log.enable();
  log.begin_request(0);
  place(log, "phase1-cpu", Resource::kCpu, 0, 0, 5);
  place(log, "phase2-gpu", Resource::kGpu, 5, 5, 7);
  place(log, "phase4-cpu", Resource::kCpu, 7, 7, 9);
  log.end_request();

  CritPathRequestInfo info;
  info.request_id = 0;
  info.label = "r0";
  info.wave = 2;
  info.latency_s = 9;
  const CritPathReport rep = compute_critical_path(log.events(), 9.0, {info});

  EXPECT_DOUBLE_EQ(rep.makespan_s, 9.0);
  EXPECT_DOUBLE_EQ(rep.attributed_s[0], 7.0);  // cpu
  EXPECT_DOUBLE_EQ(rep.attributed_s[1], 2.0);  // gpu
  EXPECT_DOUBLE_EQ(rep.attributed_s[kIdleLane], 0.0);
  EXPECT_DOUBLE_EQ(lane_sum(rep.attributed_s), rep.makespan_s);
  EXPECT_EQ(rep.bottleneck_lane(), 0);

  ASSERT_EQ(rep.steps.size(), 3u);  // chronological after the backward walk
  EXPECT_STREQ(rep.steps[0].stage, "phase1-cpu");
  EXPECT_STREQ(rep.steps[1].stage, "phase2-gpu");
  EXPECT_STREQ(rep.steps[2].stage, "phase4-cpu");
  // The request's wave stamps every step it owns.
  EXPECT_EQ(rep.steps[1].wave, 2);
  ASSERT_EQ(rep.waves.size(), 1u);
  EXPECT_EQ(rep.waves[0].wave_index, 2);
  EXPECT_DOUBLE_EQ(lane_sum(rep.waves[0].attributed_s), 9.0);

  const RequestCostBreakdown* b = rep.find_request(0);
  ASSERT_NE(b, nullptr);
  EXPECT_DOUBLE_EQ(b->service_s[0], 7.0);
  EXPECT_DOUBLE_EQ(b->service_s[1], 2.0);
  EXPECT_DOUBLE_EQ(b->crit_path_s, 9.0);  // the whole chain is this request
  EXPECT_EQ(b->bottleneck_lane(), 0);
  EXPECT_NE(b->explain().find("bottleneck cpu"), std::string::npos);
}

TEST(CritPath, LateArrivalCrossesAnIdleGap) {
  TraceRecorder log;
  log.enable();
  log.begin_request(0);
  place(log, "a", Resource::kCpu, 0, 0, 2);
  log.end_request();
  log.begin_request(1);
  place(log, "b", Resource::kCpu, 5, 5, 8);  // submitted late: wanted 5, got 5
  log.end_request();

  const CritPathReport rep = compute_critical_path(log.events(), 8.0, {});

  EXPECT_DOUBLE_EQ(rep.attributed_s[0], 5.0);
  EXPECT_DOUBLE_EQ(rep.attributed_s[kIdleLane], 3.0);
  EXPECT_DOUBLE_EQ(lane_sum(rep.attributed_s), 8.0);
  ASSERT_EQ(rep.steps.size(), 3u);
  EXPECT_EQ(rep.steps[1].lane, kIdleLane);  // [2, 5): nothing ran anywhere
  EXPECT_STREQ(rep.steps[1].stage, "idle");
  EXPECT_DOUBLE_EQ(rep.steps[1].start_s, 2.0);
  EXPECT_DOUBLE_EQ(rep.steps[1].end_s, 5.0);
  // No request info was passed, so no step has a wave.
  EXPECT_EQ(rep.steps[0].wave, kNoWave);
  EXPECT_TRUE(rep.waves.empty());
}

TEST(CritPath, ContentionHopsToTheResourceHolder) {
  TraceRecorder log;
  log.enable();
  log.begin_request(0);
  place(log, "a", Resource::kCpu, 0, 0, 4);
  log.end_request();
  log.begin_request(1);
  // Runnable at 1, granted at 4: three seconds queued behind request 0.
  place(log, "b", Resource::kCpu, 1, 4, 6);
  log.end_request();

  CritPathRequestInfo i1;
  i1.request_id = 1;
  i1.latency_s = 6;
  const CritPathReport rep = compute_critical_path(log.events(), 6.0, {i1});

  // No idle: the chain runs b -> (contention) -> a, all on the CPU.
  EXPECT_DOUBLE_EQ(rep.attributed_s[0], 6.0);
  EXPECT_DOUBLE_EQ(rep.attributed_s[kIdleLane], 0.0);
  ASSERT_EQ(rep.steps.size(), 2u);
  EXPECT_EQ(rep.steps[0].request_id, 0u);
  EXPECT_EQ(rep.steps[1].request_id, 1u);
  EXPECT_DOUBLE_EQ(rep.steps[1].queue_delay_s, 3.0);

  const RequestCostBreakdown* b = rep.find_request(1);
  ASSERT_NE(b, nullptr);
  EXPECT_DOUBLE_EQ(b->queueing_s[0], 3.0);  // blocked behind request 0
  EXPECT_DOUBLE_EQ(b->service_s[0], 2.0);
}

TEST(CritPath, RetryInflationChargesFaultsAndBackoffGaps) {
  TraceRecorder log;
  log.enable();
  log.begin_request(0);
  place(log, "phase2-gpu-abort", Resource::kGpu, 0, 0, 1);  // burnt attempt
  // Instants are not placements: the fault and retry marks change nothing.
  log.instant_on(TraceCategory::kFault, "gpu-abort", Resource::kGpu, 1, 0);
  log.instant_on(TraceCategory::kRetry, "retry-gpu", Resource::kGpu, 1, 0);
  place(log, "phase2-gpu", Resource::kGpu, 2, 2, 4);  // retry after
                                                      // backoff [1, 2)
  log.end_request();

  CritPathRequestInfo info;
  info.request_id = 0;
  info.latency_s = 4;
  info.backoff_s = 1;
  const CritPathReport rep = compute_critical_path(log.events(), 4.0, {info});

  EXPECT_DOUBLE_EQ(rep.attributed_s[1], 3.0);          // both attempts
  EXPECT_DOUBLE_EQ(rep.attributed_s[kIdleLane], 1.0);  // the backoff window
  EXPECT_DOUBLE_EQ(lane_sum(rep.attributed_s), 4.0);

  const RequestCostBreakdown* b = rep.find_request(0);
  ASSERT_NE(b, nullptr);
  EXPECT_DOUBLE_EQ(b->fault_s, 1.0);  // the aborted attempt's span
  EXPECT_DOUBLE_EQ(b->backoff_s, 1.0);
  EXPECT_NE(b->explain().find("fault overhead 1 s"), std::string::npos);
}

// ------------------------------------------------- real drains

class CritPathServiceTest : public testing::Test {
 protected:
  CritPathServiceTest()
      : a_(test::random_csr(140, 140, 0.05, 101)),
        b_(test::random_csr(140, 140, 0.06, 102)),
        c_(test::random_csr(140, 140, 0.04, 103)),
        pool_(2) {}

  void submit_batch(SpgemmService& svc, std::size_t n) {
    const CsrMatrix* mats[] = {&a_, &b_, &c_};
    for (std::size_t i = 0; i < n; ++i) {
      SpgemmRequest req;
      req.a = mats[i % 3];
      req.label = "req" + std::to_string(i);
      svc.submit(std::move(req));
    }
  }

  CsrMatrix a_;
  CsrMatrix b_;
  CsrMatrix c_;
  HeteroPlatform plat_;
  ThreadPool pool_;
};

TEST_F(CritPathServiceTest, AttributionSumsToMakespanOnRealDrains) {
  SpgemmService svc(plat_, pool_);
  submit_batch(svc, 9);
  const BatchResult out = svc.drain();

  const CritPathReport& cp = out.batch.critpath;
  EXPECT_DOUBLE_EQ(cp.makespan_s, out.batch.makespan_s);
  EXPECT_NEAR(lane_sum(cp.attributed_s), cp.makespan_s,
              1e-9 * std::max(1.0, cp.makespan_s));

  // The chain tiles [0, makespan) without gaps or overlaps.
  ASSERT_FALSE(cp.steps.empty());
  EXPECT_DOUBLE_EQ(cp.steps.front().start_s, 0.0);
  EXPECT_NEAR(cp.steps.back().end_s, cp.makespan_s, 1e-12);
  for (std::size_t i = 1; i < cp.steps.size(); ++i) {
    EXPECT_NEAR(cp.steps[i].start_s, cp.steps[i - 1].end_s, 1e-12);
  }

  // Every request has a breakdown and a non-empty explainer, and the
  // chain's per-request charge totals the whole makespan minus idle.
  double charged = 0;
  for (const RequestReport& rr : out.requests) {
    const RequestCostBreakdown* b = cp.find_request(rr.request_id);
    ASSERT_NE(b, nullptr) << rr.label;
    EXPECT_EQ(b->label, rr.label);
    EXPECT_DOUBLE_EQ(b->latency_s, rr.latency_s);
    EXPECT_FALSE(b->explain().empty());
    charged += b->crit_path_s;
  }
  EXPECT_NEAR(charged + cp.attributed_s[kIdleLane], cp.makespan_s,
              1e-9 * std::max(1.0, cp.makespan_s));

  EXPECT_NE(out.batch.to_json().find("\"critpath\""), std::string::npos);
}

// fault_s is the time of every attempt a fault burnt: the request's spans
// named *-fault, *-abort or *-corrupt. Here the first upload corrupts and
// the first GPU kernel aborts.
TEST_F(CritPathServiceTest, FaultSecondsCountCorruptedAndAbortedAttempts) {
  SpgemmService::Config cfg;
  cfg.fault_plan.h2d.trigger_ops = {0};
  cfg.fault_plan.transfer_corruption_fraction = 1.0;
  cfg.fault_plan.gpu_kernel.trigger_ops = {0};
  SpgemmService svc(plat_, pool_, cfg);
  submit_batch(svc, 1);
  const BatchResult out = svc.drain();
  ASSERT_EQ(out.requests.size(), 1u);
  const RequestReport& rr = out.requests[0];
  ASSERT_EQ(rr.faults.corruptions, 1);
  ASSERT_EQ(rr.faults.gpu_aborts, 1);

  double want = 0;
  for (const StageSpan& s : rr.spans) {
    const std::string_view name(s.stage);
    if (name.ends_with("-fault") || name.ends_with("-abort") ||
        name.ends_with("-corrupt")) {
      want += s.duration_s();
    }
  }
  const RequestCostBreakdown* b =
      out.batch.critpath.find_request(rr.request_id);
  ASSERT_NE(b, nullptr);
  EXPECT_GT(want, 0.0);
  EXPECT_DOUBLE_EQ(b->fault_s, want);
  EXPECT_NE(b->explain().find("fault overhead " + fmt_num(b->fault_s)),
            std::string::npos);
}

TEST_F(CritPathServiceTest, WaveDrainRollsUpPerWaveSlices) {
  SpgemmService::Config cfg;
  cfg.wave.enabled = true;
  cfg.keep_inputs_resident = false;
  SpgemmService svc(plat_, pool_, cfg);
  submit_batch(svc, 9);
  const BatchResult out = svc.drain();

  const CritPathReport& cp = out.batch.critpath;
  EXPECT_NEAR(lane_sum(cp.attributed_s), cp.makespan_s,
              1e-9 * std::max(1.0, cp.makespan_s));
  ASSERT_FALSE(cp.waves.empty());
  // Wave slices partition the chain's wave-stamped seconds; everything a
  // wave slice holds is also in the global per-lane totals.
  double wave_total = 0;
  for (const CritPathWaveSlice& w : cp.waves) {
    EXPECT_GE(w.wave_index, 0);
    wave_total += lane_sum(w.attributed_s);
  }
  EXPECT_LE(wave_total, lane_sum(cp.attributed_s) + 1e-9);
}

TEST_F(CritPathServiceTest, MetricsFlattenedRoundTripsCritpathSeries) {
  SpgemmService svc(plat_, pool_);
  submit_batch(svc, 6);
  const BatchResult out = svc.drain();

  const MetricsRegistry& m = svc.metrics();
  const std::vector<FlatMetric> flat = m.flattened();
  const auto value_of = [&](const std::string& name) -> const FlatMetric* {
    for (const FlatMetric& f : flat) {
      if (f.name == name) return &f;
    }
    return nullptr;
  };

  const std::string json = m.to_json();
  for (const char* lane : {"cpu", "gpu", "h2d", "d2h"}) {
    for (const char* leaf : {".busy_frac", ".blocked_frac", ".idle_frac",
                             ".crit_s"}) {
      const std::string name = std::string("critpath.") + lane + leaf;
      const FlatMetric* f = value_of(name);
      ASSERT_NE(f, nullptr) << name;
      EXPECT_EQ(f->kind, 'g') << name;
      EXPECT_NE(json.find("\"" + name + "\""), std::string::npos) << name;
    }
    // busy and idle are complementary fractions of the same makespan.
    EXPECT_NEAR(value_of(std::string("critpath.") + lane + ".busy_frac")->value +
                    value_of(std::string("critpath.") + lane + ".idle_frac")
                        ->value,
                1.0, 1e-9);
    // Queueing-delay histograms flatten to .count/.sum rows.
    const std::string hist = std::string("critpath.queue_delay_s.") + lane;
    const FlatMetric* count = value_of(hist + ".count");
    ASSERT_NE(count, nullptr) << hist;
    EXPECT_EQ(count->kind, 'h');
    ASSERT_NE(value_of(hist + ".sum"), nullptr) << hist;
  }
  const FlatMetric* bottleneck = value_of("critpath.bottleneck");
  ASSERT_NE(bottleneck, nullptr);
  EXPECT_DOUBLE_EQ(bottleneck->value,
                   static_cast<double>(out.batch.critpath.bottleneck_lane()));
}

// On a PCIe-starved platform the upload link is the critical resource; the
// identical workload (thresholds pinned so the planner cannot rebalance)
// flips its bottleneck to the GPU once the link is widened. The operand is
// hypersparse (under one nonzero per row), so its CSR bytes — dominated by
// the row-pointer array — outweigh the result tuples and the upload, not
// the download, holds the starved link's plurality.
TEST_F(CritPathServiceTest, BottleneckFlipsFromH2dToGpuWithLinkBandwidth) {
  const CsrMatrix sparse = test::random_csr(1500, 1500, 0.0005, 101);
  const auto drain_with = [&](double bw_gbps) {
    CostModel cm;
    cm.pcie.bw_gbps = bw_gbps;
    cm.gpu.derate = 8.0;  // slow GPU: visible once transfers stop dominating
    const HeteroPlatform plat = make_scaled_platform(1.0, cm);
    SpgemmService::Config cfg;
    cfg.keep_inputs_resident = false;  // every request pays its upload
    SpgemmService svc(plat, pool_, cfg);
    for (std::size_t i = 0; i < 6; ++i) {
      SpgemmRequest req;
      req.a = &sparse;
      // Pin the split: every row below the threshold runs on the GPU, so
      // both platforms execute the same placements modulo their costs.
      req.threshold_a = 1 << 20;
      req.threshold_b = 1 << 20;
      req.label = "flip" + std::to_string(i);
      svc.submit(std::move(req));
    }
    return svc.drain().batch.critpath.summary();
  };

  const CritPathSummary starved = drain_with(0.05);  // contended narrow link
  const CritPathSummary fast = drain_with(64.0);
  EXPECT_EQ(starved.bottleneck_lane(), 2)
      << "starved link should be H2D-bound: " << starved.to_string();
  EXPECT_EQ(fast.bottleneck_lane(), 1)
      << "fast link should expose the GPU: " << fast.to_string();
  // The flip is structural, not a tie wobble: H2D holds the plurality only
  // while the link is narrow.
  EXPECT_GT(starved.attributed_s[2], starved.attributed_s[1]);
  EXPECT_GT(fast.attributed_s[1], fast.attributed_s[2]);
}

TEST_F(CritPathServiceTest, ShardedRollupReconcilesWithGroupReport) {
  ShardedSpgemmService::Config cfg;
  cfg.shards = 2;
  cfg.round_quantum = 4;
  ShardedSpgemmService group(plat_, pool_, cfg);
  const CsrMatrix* mats[] = {&a_, &b_, &c_};
  for (std::size_t i = 0; i < 10; ++i) {
    SpgemmRequest req;
    req.a = mats[i % 3];
    req.label = "shard" + std::to_string(i);
    group.submit(std::move(req));
  }
  const GroupResult out = group.drain();
  const GroupBatchReport& g = out.group;

  // Per shard: accumulated lane seconds sum to the shard's accumulated
  // round makespans (each round's chain tiles its own makespan).
  double shard_makespans = 0;
  double shard_lanes[kCritLaneCount] = {0, 0, 0, 0, 0};
  for (const ShardReport& s : g.shard_reports) {
    EXPECT_NEAR(lane_sum(s.critpath.attributed_s), s.critpath.makespan_s,
                1e-9 * std::max(1.0, s.critpath.makespan_s));
    shard_makespans += s.critpath.makespan_s;
    for (int l = 0; l < kCritLaneCount; ++l) {
      shard_lanes[l] += s.critpath.attributed_s[l];
    }
  }
  // Group rollup == sum of the shard rollups, lane by lane.
  EXPECT_NEAR(g.critpath.makespan_s, shard_makespans, 1e-12);
  for (int l = 0; l < kCritLaneCount; ++l) {
    EXPECT_NEAR(g.critpath.attributed_s[l], shard_lanes[l], 1e-12);
  }
  EXPECT_NE(g.to_json().find("\"critpath\""), std::string::npos);
  EXPECT_NO_THROW(parse_json(g.to_json())) << g.to_json();
}

// ------------------------------------------------- perf baselines

PerfBaseline sample_baseline() {
  PerfBaseline b;
  b.bench = "unit.sample";
  b.scale = 0.1;
  b.requests = 64;
  b.makespan_s = 1.0;
  b.p50_latency_s = 0.4;
  b.p95_latency_s = 0.8;
  b.p99_latency_s = 0.9;
  b.attributed_s[0] = 0.7;   // cpu
  b.attributed_s[2] = 0.25;  // h2d
  b.attributed_s[4] = 0.05;  // idle
  return b;
}

TEST(PerfBaseline, RenderParseRoundTripsExactly) {
  const std::vector<PerfBaseline> set = {sample_baseline()};
  const std::string text = render_perf_baselines(set);
  const std::vector<PerfBaseline> back = parse_perf_baselines(text);
  ASSERT_EQ(back.size(), 1u);
  // %.17g round-trips doubles exactly: re-rendering is byte-identical.
  EXPECT_EQ(render_perf_baselines(back), text);
  EXPECT_EQ(back[0].bench, "unit.sample");
  EXPECT_DOUBLE_EQ(back[0].makespan_s, 1.0);
  EXPECT_DOUBLE_EQ(back[0].attributed_s[2], 0.25);
}

TEST(PerfBaseline, ParseRejectsMalformedInput) {
  EXPECT_THROW(parse_perf_baselines("{\"scale\":0.1}"), ParseError);
  EXPECT_THROW(parse_perf_baselines("[{\"bench\":\"x\"}"), ParseError);
  EXPECT_THROW(parse_perf_baselines("not json"), ParseError);
  EXPECT_THROW(
      parse_perf_baselines(
          "{\"bench\":\"x\",\"attributed_s\":{\"warp\":1}}"),
      ParseError);
}

TEST(PerfBaseline, IdenticalRunsCompareClean) {
  const std::vector<PerfBaseline> set = {sample_baseline()};
  const PerfDiff d = compare_perf_baselines(set, set);
  EXPECT_FALSE(d.regressed);
  EXPECT_TRUE(d.findings.empty());
  EXPECT_TRUE(d.improvements.empty());
}

TEST(PerfBaseline, TenPercentMakespanRegressionIsCaught) {
  const std::vector<PerfBaseline> old_set = {sample_baseline()};
  std::vector<PerfBaseline> new_set = old_set;
  new_set[0].makespan_s *= 1.10;  // outside the 5% band
  const PerfDiff d = compare_perf_baselines(old_set, new_set);
  EXPECT_TRUE(d.regressed);
  ASSERT_FALSE(d.findings.empty());
  EXPECT_NE(d.findings[0].find("makespan_s"), std::string::npos);
  EXPECT_NO_THROW(parse_json(d.to_json())) << d.to_json();
}

TEST(PerfBaseline, AttributionShareDriftIsARegressionEvenAtEqualMakespan) {
  const std::vector<PerfBaseline> old_set = {sample_baseline()};
  std::vector<PerfBaseline> new_set = old_set;
  // Same makespan, but 0.3 s migrated from the CPU to the PCIe link.
  new_set[0].attributed_s[0] -= 0.3;
  new_set[0].attributed_s[2] += 0.3;
  const PerfDiff d = compare_perf_baselines(old_set, new_set);
  EXPECT_TRUE(d.regressed);
  bool mentions_h2d = false;
  for (const std::string& f : d.findings) {
    mentions_h2d |= f.find("h2d") != std::string::npos;
  }
  EXPECT_TRUE(mentions_h2d);
}

TEST(PerfBaseline, MissingAndIncomparableBenchesRegress) {
  const std::vector<PerfBaseline> old_set = {sample_baseline()};
  EXPECT_TRUE(compare_perf_baselines(old_set, {}).regressed);

  std::vector<PerfBaseline> rescaled = old_set;
  rescaled[0].scale = 0.2;
  const PerfDiff d = compare_perf_baselines(old_set, rescaled);
  EXPECT_TRUE(d.regressed);
  ASSERT_FALSE(d.findings.empty());
  EXPECT_NE(d.findings[0].find("not comparable"), std::string::npos);
}

TEST(PerfBaseline, ImprovementsAndNewBenchesAreInformational) {
  const std::vector<PerfBaseline> old_set = {sample_baseline()};
  std::vector<PerfBaseline> new_set = old_set;
  new_set[0].makespan_s *= 0.8;  // faster than the band: not a regression
  new_set[0].attributed_s[0] *= 0.8;
  new_set[0].attributed_s[2] *= 0.8;
  new_set[0].attributed_s[4] *= 0.8;
  PerfBaseline extra = sample_baseline();
  extra.bench = "unit.extra";
  new_set.push_back(extra);
  const PerfDiff d = compare_perf_baselines(old_set, new_set);
  EXPECT_FALSE(d.regressed);
  EXPECT_FALSE(d.improvements.empty());
  ASSERT_FALSE(d.notes.empty());
  EXPECT_NE(d.notes[0].find("unit.extra"), std::string::npos);
}

TEST_F(CritPathServiceTest, BaselineFromBatchMatchesTheReport) {
  SpgemmService svc(plat_, pool_);
  submit_batch(svc, 6);
  const BatchResult out = svc.drain();

  const PerfBaseline b = baseline_from_batch("unit.drain", 1.0, out.batch);
  EXPECT_EQ(b.requests, static_cast<std::int64_t>(out.batch.requests));
  EXPECT_DOUBLE_EQ(b.makespan_s, out.batch.makespan_s);
  for (int i = 0; i < kCritLaneCount; ++i) {
    EXPECT_DOUBLE_EQ(b.attributed_s[i], out.batch.critpath.attributed_s[i]);
  }
  // A drain compared against itself is clean at any tolerance.
  const PerfDiff d = compare_perf_baselines({b}, {b});
  EXPECT_FALSE(d.regressed);
}

}  // namespace
}  // namespace hh
