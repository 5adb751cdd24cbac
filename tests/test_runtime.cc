#include "runtime/service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>

#include "core/hh_cpu.hpp"
#include "core/threshold.hpp"
#include "gen/datasets.hpp"
#include "runtime/signature.hpp"
#include "runtime/timeline.hpp"
#include "runtime/wave.hpp"
#include "test_util.hpp"
#include "util/status.hpp"

namespace hh {
namespace {

// ---------------------------------------------------------------- timeline

TEST(ResourceTimeline, AppendsWhenNoGapFits) {
  ResourceTimeline t(Resource::kCpu);
  const StageSpan a = t.reserve("a", 0, 1.0);
  EXPECT_DOUBLE_EQ(a.start_s, 0);
  EXPECT_DOUBLE_EQ(a.end_s, 1.0);
  const StageSpan b = t.reserve("b", 0, 2.0);
  EXPECT_DOUBLE_EQ(b.start_s, 1.0);  // no idle window: appended
  EXPECT_DOUBLE_EQ(b.end_s, 3.0);
  EXPECT_DOUBLE_EQ(t.now(), 3.0);
  EXPECT_DOUBLE_EQ(t.busy(), 3.0);
}

TEST(ResourceTimeline, RespectsEarliestAndRecordsGap) {
  ResourceTimeline t(Resource::kGpu);
  const StageSpan a = t.reserve("a", 5.0, 1.0);  // dependence-delayed
  EXPECT_DOUBLE_EQ(a.start_s, 5.0);
  EXPECT_DOUBLE_EQ(t.now(), 6.0);
  EXPECT_DOUBLE_EQ(t.busy(), 1.0);
  // The [0, 5) idle window is backfillable by an independent stage.
  const StageSpan b = t.reserve("b", 0, 2.0);
  EXPECT_DOUBLE_EQ(b.start_s, 0);
  EXPECT_DOUBLE_EQ(b.end_s, 2.0);
  EXPECT_DOUBLE_EQ(t.now(), 6.0);  // frontier unchanged by backfill
  // The remaining [2, 5) slice is still available...
  const StageSpan c = t.reserve("c", 0, 3.0);
  EXPECT_DOUBLE_EQ(c.start_s, 2.0);
  EXPECT_DOUBLE_EQ(c.end_s, 5.0);
  // ...and once full, new work appends at the frontier.
  const StageSpan d = t.reserve("d", 0, 0.5);
  EXPECT_DOUBLE_EQ(d.start_s, 6.0);
  EXPECT_DOUBLE_EQ(t.busy(), 6.5);
}

TEST(ResourceTimeline, BackfillHonorsEarliestInsideGap) {
  ResourceTimeline t;
  t.reserve("late", 10.0, 1.0);            // gap [0, 10)
  const StageSpan s = t.reserve("mid", 4.0, 2.0);
  EXPECT_DOUBLE_EQ(s.start_s, 4.0);        // not earlier than its dependence
  EXPECT_DOUBLE_EQ(s.end_s, 6.0);
  const StageSpan head = t.reserve("head", 0, 4.0);  // [0, 4) slice survives
  EXPECT_DOUBLE_EQ(head.start_s, 0);
  const StageSpan tail = t.reserve("tail", 0, 4.0);  // [6, 10) slice survives
  EXPECT_DOUBLE_EQ(tail.start_s, 6.0);
  EXPECT_DOUBLE_EQ(t.busy(), 11.0);
  EXPECT_DOUBLE_EQ(t.now(), 11.0);
}

TEST(ResourceTimeline, ZeroDurationOccupiesNothing) {
  ResourceTimeline t;
  t.reserve("a", 0, 1.0);
  // The resource is occupied until 1.0, so an instantaneous stage asked for
  // at 0.25 is stamped when the resource actually frees up — not inside the
  // busy interval (that timestamp would order it before work it follows).
  const StageSpan z = t.reserve("z", 0.25, 0.0);
  EXPECT_DOUBLE_EQ(z.start_s, 1.0);
  EXPECT_DOUBLE_EQ(z.duration_s(), 0);
  EXPECT_DOUBLE_EQ(t.now(), 1.0);   // clock untouched
  EXPECT_DOUBLE_EQ(t.busy(), 1.0);  // occupancy untouched

  // In an idle gap the requested time is granted as-is.
  t.reserve("b", 3.0, 1.0);
  const StageSpan g = t.reserve("g", 2.0, 0.0);
  EXPECT_DOUBLE_EQ(g.start_s, 2.0);
  EXPECT_DOUBLE_EQ(t.now(), 4.0);
}

TEST(ResourceTimeline, BlockStartFindsFirstWindowThatFitsWholeBlock) {
  ResourceTimeline t;
  t.reserve("late", 10.0, 1.0);  // idle window [0, 10)
  EXPECT_DOUBLE_EQ(t.block_start(0.0, 4.0), 0.0);
  EXPECT_DOUBLE_EQ(t.block_start(3.0, 4.0), 3.0);   // fits later in the gap
  EXPECT_DOUBLE_EQ(t.block_start(0.0, 12.0), 11.0); // too big: frontier
  EXPECT_DOUBLE_EQ(t.block_start(0.0, 0.0), 0.0);   // degenerate block
}

TEST(ResourceTimeline, BlockStartSegmentsAreContiguousAndSkipShortGaps) {
  // The service's coalesced upload: find the block's start once, then
  // reserve each segment from the previous segment's end.
  TraceRecorder log;
  log.enable();
  ResourceTimeline t(Resource::kH2D, &log);
  t.reserve("early", 1.0, 1.0);  // idle window [0, 1) — too short for the
  t.reserve("late", 5.0, 1.0);   // block; window [2, 5) fits it whole
  const double cursor = t.block_start(0.0, 2.5);
  // Both segments were runnable at the block's earliest (0).
  const StageSpan s0 = t.reserve("seg0", cursor, 1.0, /*requested=*/0.0);
  const StageSpan s1 = t.reserve("seg1", s0.end_s, 1.5, /*requested=*/0.0);
  // The whole block lands in [2, 5): no segment leaks into the [0, 1) gap.
  EXPECT_DOUBLE_EQ(s0.start_s, 2.0);
  EXPECT_DOUBLE_EQ(s0.end_s, 3.0);
  // Segments are back-to-back: no idle time inside the block.
  EXPECT_DOUBLE_EQ(s1.start_s, 3.0);
  EXPECT_DOUBLE_EQ(s1.end_s, 4.5);
  // The recorded spans count the wait for the slot as queueing.
  const std::vector<TraceEvent>& ev = log.events();
  ASSERT_EQ(ev.size(), 4u);
  EXPECT_DOUBLE_EQ(ev[2].start_s - ev[2].requested_s, 2.0);
  EXPECT_DOUBLE_EQ(ev[3].start_s - ev[3].requested_s, 3.0);
  // The short head gap survives for later independent work.
  EXPECT_DOUBLE_EQ(t.reserve("backfill", 0.0, 0.5).start_s, 0.0);
}

// ------------------------------------------------------------------- waves

using OperandIds = std::vector<std::array<std::uint32_t, 2>>;

TEST(FormWaves, PartitionsContiguouslyAndGroupsSharedOperands) {
  // Requests 0-2 share operand 0 and fit the 3-operand cap together;
  // request 3's two fresh operands would blow the cap, starting wave 2.
  const OperandIds ids = {{0, 0}, {0, 1}, {1, 0}, {2, 3}};
  const std::vector<WaveBounds> waves = form_waves(ids, 16, 3);
  ASSERT_EQ(waves.size(), 2u);
  EXPECT_EQ(waves[0].begin, 0u);
  EXPECT_EQ(waves[0].end, 3u);
  EXPECT_EQ(waves[1].begin, 3u);
  EXPECT_EQ(waves[1].end, 4u);
  // With room for every operand the whole queue is one wave.
  const std::vector<WaveBounds> wide = form_waves(ids, 16, 8);
  ASSERT_EQ(wide.size(), 1u);
  EXPECT_EQ(wide[0].end, 4u);
}

TEST(FormWaves, MaxRequestsOneDegeneratesToSingleRequestWaves) {
  const OperandIds ids = {{0, 0}, {0, 0}, {0, 0}};
  const std::vector<WaveBounds> waves = form_waves(ids, 1, 8);
  ASSERT_EQ(waves.size(), 3u);
  for (std::size_t i = 0; i < waves.size(); ++i) {
    EXPECT_EQ(waves[i].begin, i);
    EXPECT_EQ(waves[i].end, i + 1);
  }
}

TEST(FormWaves, OperandCapSplitsAllDistinctTraffic) {
  // All-distinct operands: dedup is a no-op and the operand cap is the
  // only thing bounding wave width (2 distinct operands per request).
  const OperandIds ids = {{0, 1}, {2, 3}, {4, 5}, {6, 7}};
  const std::vector<WaveBounds> waves = form_waves(ids, 16, 4);
  ASSERT_EQ(waves.size(), 2u);
  EXPECT_EQ(waves[0].end, 2u);
  EXPECT_EQ(waves[1].begin, 2u);
}

TEST(FormWaves, FreshOperandFreeRequestsRideAlongPastOperandCap) {
  // Request 2 re-uses operands already in the wave: it joins even though
  // the wave is at its operand cap.
  const OperandIds ids = {{0, 1}, {2, 3}, {1, 2}, {4, 4}};
  const std::vector<WaveBounds> waves = form_waves(ids, 16, 4);
  ASSERT_EQ(waves.size(), 2u);
  EXPECT_EQ(waves[0].end, 3u);
  EXPECT_EQ(waves[1].begin, 3u);
}

TEST(FormWaves, UnboundedCapsYieldOneWave) {
  const OperandIds ids = {{0, 1}, {2, 3}, {4, 5}, {6, 7}, {8, 9}};
  const std::vector<WaveBounds> waves = form_waves(ids, 0, 0);
  ASSERT_EQ(waves.size(), 1u);
  EXPECT_EQ(waves[0].begin, 0u);
  EXPECT_EQ(waves[0].end, 5u);
}

TEST(FormWaves, EmptyQueueFormsNoWaves) {
  EXPECT_TRUE(form_waves({}, 16, 8).empty());
}

// ----------------------------------------------------------------- service

void expect_bit_identical(const CsrMatrix& want, const CsrMatrix& got,
                          const std::string& label) {
  EXPECT_EQ(want.rows, got.rows) << label;
  EXPECT_EQ(want.cols, got.cols) << label;
  EXPECT_EQ(want.indptr, got.indptr) << label;
  EXPECT_EQ(want.indices, got.indices) << label;
  EXPECT_EQ(want.values, got.values) << label;  // exact, not approximate
}

class ServiceTest : public testing::Test {
 protected:
  ServiceTest()
      : wiki_(make_dataset(dataset_spec("wiki-Vote"), 0.05)),
        enron_(make_dataset(dataset_spec("email-Enron"), 0.03)),
        pool_(2) {}

  CsrMatrix wiki_;
  CsrMatrix enron_;
  HeteroPlatform plat_;
  ThreadPool pool_;
};

TEST_F(ServiceTest, BatchOutputsBitIdenticalToSerialDriver) {
  SpgemmService service(plat_, pool_);
  const CsrMatrix* mats[] = {&wiki_, &enron_, &wiki_, &enron_, &wiki_,
                             &enron_, &wiki_, &enron_};
  for (const CsrMatrix* m : mats) {
    service.submit({m, nullptr, 0, 0, ""});
  }
  ASSERT_EQ(service.pending(), 8u);
  const BatchResult batch = service.drain();
  EXPECT_EQ(service.pending(), 0u);
  ASSERT_EQ(batch.results.size(), 8u);

  double serial_total = 0;
  for (std::size_t i = 0; i < std::size(mats); ++i) {
    const RunResult serial =
        run_hh_cpu(*mats[i], *mats[i], HhCpuOptions{}, plat_, pool_);
    serial_total += serial.report.total_s;
    expect_bit_identical(serial.c, batch.results[i].c,
                         "request " + std::to_string(i));
  }
  // Pipelining + plan cache + residency: strictly faster than back-to-back.
  EXPECT_LT(batch.batch.makespan_s, serial_total);
  EXPECT_GT(batch.batch.makespan_s, 0);
}

TEST_F(ServiceTest, PlanCacheHitsAreBitExactAndSkipIdentification) {
  SpgemmService service(plat_, pool_);
  service.submit({&wiki_, nullptr, 0, 0, "cold"});
  service.submit({&wiki_, nullptr, 0, 0, "warm"});
  const BatchResult batch = service.drain();
  ASSERT_EQ(batch.results.size(), 2u);

  EXPECT_FALSE(batch.requests[0].plan_cache_hit);
  EXPECT_TRUE(batch.requests[1].plan_cache_hit);
  // Same thresholds, same matrix → identical output.
  EXPECT_EQ(batch.results[0].report.threshold_a,
            batch.results[1].report.threshold_a);
  expect_bit_identical(batch.results[0].c, batch.results[1].c, "warm");
  // The hit skips identification but still pays classification.
  EXPECT_LT(batch.results[1].report.phase1_s,
            batch.results[0].report.phase1_s);
  EXPECT_GT(batch.results[1].report.phase1_s, 0);
  // The warm request found its operand resident: no H2D bytes.
  EXPECT_TRUE(batch.requests[1].inputs_resident);
  EXPECT_DOUBLE_EQ(batch.results[1].report.transfer_in_s, 0);
  EXPECT_EQ(service.plan_cache().stats().hits, 1);
}

TEST_F(ServiceTest, CacheSurvivesAcrossDrains) {
  SpgemmService service(plat_, pool_);
  service.submit({&wiki_, nullptr, 0, 0, ""});
  const BatchResult first = service.drain();
  service.submit({&wiki_, nullptr, 0, 0, ""});
  const BatchResult second = service.drain();
  EXPECT_TRUE(second.requests[0].plan_cache_hit);
  expect_bit_identical(first.results[0].c, second.results[0].c, "redrain");
  // invalidate_inputs drops residency (plans stay: keyed by signature).
  service.invalidate_inputs();
  service.submit({&wiki_, nullptr, 0, 0, ""});
  const BatchResult third = service.drain();
  EXPECT_TRUE(third.requests[0].plan_cache_hit);
  EXPECT_FALSE(third.requests[0].inputs_resident);
  expect_bit_identical(first.results[0].c, third.results[0].c, "invalidate");
}

TEST_F(ServiceTest, ExplicitThresholdsBypassTheCache) {
  SpgemmService service(plat_, pool_);
  SpgemmRequest req{&wiki_, nullptr, 0, 0, ""};
  req.threshold_a = 4;
  req.threshold_b = 4;
  service.submit(std::move(req));
  service.drain();
  EXPECT_EQ(service.plan_cache().size(), 0u);
  EXPECT_EQ(service.plan_cache().stats().misses, 0);
}

TEST_F(ServiceTest, HalfPinnedRequestsKeepTheirPinThroughThePlanCache) {
  const offset_t t = pick_threshold_analytic(wiki_, wiki_, plat_).t;
  const offset_t pin = t + 7;
  const auto expect_serial = [&](const BatchResult& batch, std::size_t i,
                                 offset_t t_a, offset_t t_b) {
    const RunReport& rep = batch.results[i].report;
    EXPECT_EQ(rep.threshold_a, t_a) << "request " << i;
    EXPECT_EQ(rep.threshold_b, t_b) << "request " << i;
    HhCpuOptions opt;
    opt.threshold_a = t_a;
    opt.threshold_b = t_b;
    expect_bit_identical(run_hh_cpu(wiki_, wiki_, opt, plat_, pool_).c,
                         batch.results[i].c, "request " + std::to_string(i));
  };
  {
    // A hit fills only the unpinned side from the cached plan.
    SpgemmService service(plat_, pool_);
    service.submit({&wiki_, nullptr, 0, 0, "cold"});
    service.drain();
    SpgemmRequest half{&wiki_, nullptr, 0, 0, "pinned B"};
    half.threshold_b = pin;
    service.submit(std::move(half));
    const BatchResult batch = service.drain();
    EXPECT_TRUE(batch.requests[0].plan_cache_hit);
    expect_serial(batch, 0, t, pin);
  }
  {
    // A half-pinned miss caches the identified t on both sides, so a later
    // unpinned request is served what a cold one gets.
    SpgemmService service(plat_, pool_);
    SpgemmRequest half{&wiki_, nullptr, 0, 0, "pinned A"};
    half.threshold_a = pin;
    service.submit(std::move(half));
    const BatchResult first = service.drain();
    EXPECT_FALSE(first.requests[0].plan_cache_hit);
    expect_serial(first, 0, pin, t);
    service.submit({&wiki_, nullptr, 0, 0, "unpinned"});
    const BatchResult second = service.drain();
    EXPECT_TRUE(second.requests[0].plan_cache_hit);
    expect_serial(second, 0, t, t);
  }
}

TEST_F(ServiceTest, RectangularProductMatchesSerial) {
  const CsrMatrix a = test::random_csr(150, 90, 0.04, 3);
  const CsrMatrix b = test::random_csr(90, 120, 0.06, 5);
  SpgemmService service(plat_, pool_);
  service.submit({&a, &b, 0, 0, "rect"});
  const BatchResult batch = service.drain();
  const RunResult serial = run_hh_cpu(a, b, HhCpuOptions{}, plat_, pool_);
  expect_bit_identical(serial.c, batch.results[0].c, "rect");
}

TEST_F(ServiceTest, ReportsAreInternallyConsistent) {
  SpgemmService service(plat_, pool_);
  for (int i = 0; i < 5; ++i) {
    service.submit({&wiki_, nullptr, 0, 0, "r" + std::to_string(i)});
  }
  const BatchResult batch = service.drain();
  const BatchReport& br = batch.batch;
  EXPECT_EQ(br.requests, 5u);
  EXPECT_LE(br.p50_latency_s, br.p95_latency_s);
  EXPECT_LE(br.p95_latency_s, br.p99_latency_s);
  EXPECT_LE(br.p99_latency_s, br.makespan_s + 1e-12);
  EXPECT_GT(br.cpu_busy_s, 0);
  double max_finish = 0;
  for (const RequestReport& r : batch.requests) {
    EXPECT_GE(r.queue_wait_s, 0) << r.label;
    EXPECT_DOUBLE_EQ(r.latency_s, r.finish_s - r.submit_s) << r.label;
    EXPECT_DOUBLE_EQ(r.run.total_s, r.latency_s) << r.label;
    max_finish = std::max(max_finish, r.finish_s);
    for (const StageSpan& s : r.spans) {
      EXPECT_GE(s.start_s, r.start_s - 1e-12) << r.label << " " << s.stage;
      EXPECT_LE(s.end_s, r.finish_s + 1e-12) << r.label << " " << s.stage;
      EXPECT_GT(s.duration_s(), 0) << r.label << " " << s.stage;
    }
  }
  EXPECT_DOUBLE_EQ(br.makespan_s, max_finish);
  // JSON renderings are single-line objects with the headline keys.
  const std::string j = br.to_json();
  EXPECT_NE(j.find("\"makespan_s\":"), std::string::npos);
  EXPECT_NE(j.find("\"p99_latency_s\":"), std::string::npos);
  const std::string rj = batch.requests[0].to_json();
  EXPECT_NE(rj.find("\"stages\":["), std::string::npos);
  EXPECT_NE(rj.find("\"run\":{"), std::string::npos);
  EXPECT_EQ(rj.find('\n'), std::string::npos);
}

TEST_F(ServiceTest, SubmitRejectsMalformedRequestsWithTypedErrors) {
  SpgemmService service(plat_, pool_);

  // Null A operand.
  EXPECT_THROW(service.submit({nullptr, nullptr, 0, 0, ""}),
               InvalidArgumentError);

  // Degenerate (empty) operand.
  CsrMatrix empty;
  EXPECT_THROW(service.submit({&empty, nullptr, 0, 0, ""}),
               InvalidArgumentError);

  // Incompatible shapes: A.cols != B.rows.
  const CsrMatrix a = test::random_csr(10, 7, 0.3, 1);
  const CsrMatrix b = test::random_csr(9, 5, 0.3, 2);
  try {
    service.submit({&a, &b, 0, 0, "shapes"});
    FAIL() << "expected InvalidArgumentError";
  } catch (const InvalidArgumentError& e) {
    EXPECT_EQ(e.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(std::string(e.what()).find("incompatible"), std::string::npos);
  }

  // Inconsistent CSR arrays (indptr not matching indices).
  CsrMatrix broken = a;
  broken.indptr.back() += 1;
  EXPECT_THROW(service.submit({&broken, nullptr, 0, 0, ""}),
               InvalidArgumentError);

  // Negative thresholds, on either side.
  SpgemmRequest neg_ta{&wiki_, nullptr, 0, 0, ""};
  neg_ta.threshold_a = -3;
  EXPECT_THROW(service.submit(std::move(neg_ta)), InvalidArgumentError);
  SpgemmRequest neg_tb{&wiki_, nullptr, 0, 0, ""};
  neg_tb.threshold_b = -1;
  EXPECT_THROW(service.submit(std::move(neg_tb)), InvalidArgumentError);

  // Negative deadline.
  SpgemmRequest neg_d{&wiki_, nullptr, 0, 0, ""};
  neg_d.deadline_s = -1.0;
  EXPECT_THROW(service.submit(std::move(neg_d)), InvalidArgumentError);

  // Nothing malformed was admitted; a healthy request still goes through.
  EXPECT_EQ(service.pending(), 0u);
  service.submit({&wiki_, nullptr, 0, 0, "ok"});
  EXPECT_EQ(service.pending(), 1u);
  EXPECT_TRUE(service.drain().requests[0].status.ok());
}

// Unsorted and repeated columns are well-formed: the service accepts them
// and returns run_hh_cpu's C, which sums the repeats into ascending rows.
TEST_F(ServiceTest, UnsortedAndDuplicateColumnsAreSummed) {
  const CsrMatrix a = test::unsorted_with_duplicates(80, 60, 0.1, 51);
  const CsrMatrix b = test::unsorted_with_duplicates(60, 90, 0.1, 52);
  SpgemmService service(plat_, pool_);
  service.submit({&a, &b, 0, 0, "unsorted"});
  const BatchResult out = service.drain();
  ASSERT_TRUE(out.requests[0].status.ok());
  test::expect_sorted_reference(a, b, out.results[0].c, "service");
  expect_bit_identical(run_hh_cpu(a, b, {}, plat_, pool_).c, out.results[0].c,
                       "service vs run_hh_cpu");
}

// A malformed operand on either side is rejected at submit with a typed
// error, so drain() never reads a bad index.
class MalformedSubmitTest
    : public ServiceTest,
      public testing::WithParamInterface<test::Malformation> {};

TEST_P(MalformedSubmitTest, ThrowsInvalidArgument) {
  const CsrMatrix bad = test::malformed_4x4(GetParam());
  const CsrMatrix good = test::well_formed_4x4();
  SpgemmService service(plat_, pool_);
  // Every submit walks a malformed operand again: only a pass is
  // remembered.
  for (int round = 0; round < 2; ++round) {
    EXPECT_THROW(service.submit({&bad, nullptr, 0, 0, ""}),
                 InvalidArgumentError);
    EXPECT_THROW(service.submit({&bad, &good, 0, 0, ""}),
                 InvalidArgumentError);
    EXPECT_THROW(service.submit({&good, &bad, 0, 0, ""}),
                 InvalidArgumentError);
  }
  EXPECT_EQ(service.pending(), 0u);
}

// The error names the operand and its defect in words, with no checked
// expression and no source path.
TEST_P(MalformedSubmitTest, MessageNamesTheDefect) {
  const CsrMatrix bad = test::malformed_4x4(GetParam());
  const CsrMatrix good = test::well_formed_4x4();
  SpgemmService service(plat_, pool_);
  test::expect_malformed_message(
      [&] { service.submit({&bad, nullptr, 0, 0, ""}); }, "A", GetParam());
  test::expect_malformed_message(
      [&] { service.submit({&good, &bad, 0, 0, ""}); }, "B", GetParam());
}

INSTANTIATE_TEST_SUITE_P(Malformations, MalformedSubmitTest,
                         testing::ValuesIn(test::kAllMalformations),
                         test::MalformationParamName());

// An operand's full check is remembered until the next drain(), or until
// invalidate_inputs(): an operand changed after either is walked again at
// its next submit.
TEST_F(ServiceTest, OperandCheckLastsOneDrainWindow) {
  CsrMatrix m = test::well_formed_4x4();
  SpgemmService service(plat_, pool_);
  service.submit({&m, nullptr, 0, 0, ""});
  service.submit({&m, nullptr, 0, 0, ""});
  EXPECT_EQ(service.drain().results.size(), 2u);
  m.indices[3] = m.cols;
  EXPECT_THROW(service.submit({&m, nullptr, 0, 0, ""}), InvalidArgumentError);
  m = test::well_formed_4x4();
  service.submit({&m, nullptr, 0, 0, ""});
  m.indices[3] = -1;
  service.invalidate_inputs();
  EXPECT_THROW(service.submit({&m, nullptr, 0, 0, ""}), InvalidArgumentError);
  m = test::well_formed_4x4();
  EXPECT_EQ(service.drain().results.size(), 1u);
}

TEST_F(ServiceTest, WorkspacePoolingPreservesResults) {
  // The service always pools its numeric pass's SPAs; run_hh_cpu without
  // options.workspace never does. Each request after the first runs on the
  // SPAs its predecessor gave back.
  SpgemmService pooled(plat_, pool_);
  const CsrMatrix* mats[] = {&enron_, &wiki_, &enron_};
  for (const CsrMatrix* m : mats) pooled.submit({m, nullptr, 0, 0, ""});
  const BatchResult b = pooled.drain();
  for (std::size_t i = 0; i < std::size(mats); ++i) {
    const RunResult unpooled =
        run_hh_cpu(*mats[i], *mats[i], HhCpuOptions{}, plat_, pool_);
    expect_bit_identical(unpooled.c, b.results[i].c,
                         "pooled vs unpooled " + std::to_string(i));
  }
  EXPECT_GT(pooled.workspace_pool().stats().spa_reuses, 0);
}

// ---------------------------------------------------- symbolic-result cache

// The same matrix with column c moved to cols - 1 - c: every row keeps its
// size, so the plan-cache signature is unchanged, but the product's
// structure is not.
CsrMatrix mirrored_columns(CsrMatrix m) {
  for (index_t& c : m.indices) c = m.cols - 1 - c;
  m.sort_rows();
  return m;
}

// EXPECT that each request's C is run_hh_cpu's at the thresholds the service
// chose for it.
void expect_serial_bits(const BatchResult& batch,
                        const std::vector<const CsrMatrix*>& mats,
                        const HeteroPlatform& plat, ThreadPool& pool,
                        const std::string& label) {
  ASSERT_EQ(batch.results.size(), mats.size()) << label;
  for (std::size_t i = 0; i < mats.size(); ++i) {
    HhCpuOptions opt;
    opt.threshold_a = batch.results[i].report.threshold_a;
    opt.threshold_b = batch.results[i].report.threshold_b;
    expect_bit_identical(run_hh_cpu(*mats[i], *mats[i], opt, plat, pool).c,
                         batch.results[i].c,
                         label + " request " + std::to_string(i));
  }
}

// Hits, misses and known-pattern passes since `before`.
using Lookups = std::array<std::int64_t, 3>;
Lookups lookups_since(const SpgemmService& s,
                      const SymbolicCache::Stats& before) {
  const SymbolicCache::Stats now = s.symbolic_cache().stats();
  return {now.hits - before.hits, now.misses - before.misses,
          now.pattern_passes - before.pattern_passes};
}

// A repeated drain runs on the first drain's symbolic results, and each
// hit writes only C's values into its pair's pattern. Its reports are
// those of a service that had to rebuild every entry: `cold` drained
// same-signature operands of another structure in between, which evicts
// the entries and leaves the plan cache, residency and request ids as
// `warm` has them.
TEST_F(ServiceTest, RepeatedDrainHitsEverySymbolicResult) {
  const CsrMatrix wiki_z = mirrored_columns(wiki_);
  const CsrMatrix enron_z = mirrored_columns(enron_);
  const std::vector<const CsrMatrix*> mats = {&wiki_, &enron_, &wiki_};
  const std::vector<const CsrMatrix*> others = {&wiki_z, &enron_z, &wiki_z};
  const auto drain = [](SpgemmService& s,
                        const std::vector<const CsrMatrix*>& ms) {
    for (const CsrMatrix* m : ms) s.submit({m, nullptr, 0, 0, "r"});
    return s.drain();
  };
  SpgemmService warm(plat_, pool_);
  SpgemmService cold(plat_, pool_);
  drain(warm, mats);
  drain(cold, mats);
  EXPECT_EQ(lookups_since(warm, {}), (Lookups{1, 2, 1}));

  SymbolicCache::Stats before = warm.symbolic_cache().stats();
  expect_serial_bits(drain(warm, mats), mats, plat_, pool_, "second drain");
  EXPECT_EQ(lookups_since(warm, before), (Lookups{3, 0, 3}));
  before = cold.symbolic_cache().stats();
  const BatchResult moved = drain(cold, others);
  EXPECT_EQ(lookups_since(cold, before), (Lookups{1, 2, 1}));
  for (const RequestReport& rr : moved.requests) EXPECT_TRUE(rr.plan_cache_hit);

  before = warm.symbolic_cache().stats();
  const BatchResult hit = drain(warm, mats);
  EXPECT_EQ(lookups_since(warm, before), (Lookups{3, 0, 3}));
  before = cold.symbolic_cache().stats();
  const BatchResult miss = drain(cold, mats);
  EXPECT_EQ(lookups_since(cold, before), (Lookups{1, 2, 1}));
  expect_serial_bits(hit, mats, plat_, pool_, "third drain");
  EXPECT_EQ(hit.batch.to_json(), miss.batch.to_json());
  for (std::size_t i = 0; i < mats.size(); ++i) {
    EXPECT_EQ(hit.requests[i].to_json(), miss.requests[i].to_json()) << i;
    expect_bit_identical(miss.results[i].c, hit.results[i].c, "cold vs warm");
  }
}

// An entry is keyed by structure: new values hit and write only C's
// values into the held pattern, a new structure misses, and a structure
// changed in place behind the service's per-pointer memos is caught by the
// byte check. Every C is run_hh_cpu's.
TEST_F(ServiceTest, SymbolicCacheHitsOnValuesAndProvesStructure) {
  CsrMatrix m = wiki_;
  SpgemmService service(plat_, pool_);
  const auto drain_once = [&](const std::string& label) {
    const SymbolicCache::Stats before = service.symbolic_cache().stats();
    service.submit({&m, nullptr, 0, 0, label});
    expect_serial_bits(service.drain(), {&m}, plat_, pool_, label);
    return lookups_since(service, before);
  };
  EXPECT_EQ(drain_once("cold"), (Lookups{0, 1, 0}));
  for (value_t& v : m.values) v = 2 * v - 0.25;
  service.invalidate_inputs();
  EXPECT_EQ(drain_once("new values"), (Lookups{1, 0, 1}));
  m = mirrored_columns(m);
  service.invalidate_inputs();
  EXPECT_EQ(drain_once("new structure"), (Lookups{0, 1, 0}));
  // In place, without invalidate_inputs(): the structure digest memoised
  // for &m is stale, and only the byte check keeps the old costs and
  // pattern out.
  m = mirrored_columns(m);
  EXPECT_EQ(drain_once("mutated in place"), (Lookups{0, 1, 0}));
  EXPECT_EQ(drain_once("again"), (Lookups{1, 0, 1}));
}

// A request cancelled at its deadline after its lookup, before its numeric
// pass, leaves its pair without a pattern. The next drain's request on the
// same operands runs the symbolic pass again for C's row sizes and the full
// pass, and returns run_hh_cpu's bits; the drain after that hits and takes
// the known-pattern pass.
TEST_F(ServiceTest, RequestCancelledBeforeItsNumericPassLeavesNoPattern) {
  // The same request on a fresh service, undeadlined, times the stages:
  // the deadline falls inside its phase2-cpu span, after the lookup.
  SpgemmService probe(plat_, pool_);
  probe.submit({&wiki_, nullptr, 0, 0, "probe"});
  const BatchResult timed = probe.drain();
  const auto& spans = timed.requests[0].spans;
  const auto p2 = std::find_if(spans.begin(), spans.end(), [](const auto& s) {
    return std::string(s.stage) == "phase2-cpu";
  });
  ASSERT_NE(p2, spans.end());
  ASSERT_GT(p2->duration_s(), 0);

  SpgemmService service(plat_, pool_);
  SpgemmRequest doomed{&wiki_, nullptr, 0, 0, "doomed"};
  doomed.deadline_s = (p2->start_s + p2->end_s) / 2;
  service.submit(doomed);
  const BatchResult cut = service.drain();
  ASSERT_TRUE(cut.requests[0].deadline_missed);
  EXPECT_EQ(cut.results[0].c.nnz(), 0);
  EXPECT_EQ(lookups_since(service, {}), (Lookups{0, 1, 0}));
  EXPECT_EQ(service.symbolic_cache().stats().entries, 1u);

  const auto drain_once = [&](const std::string& label) {
    const SymbolicCache::Stats before = service.symbolic_cache().stats();
    service.submit({&wiki_, nullptr, 0, 0, label});
    expect_serial_bits(service.drain(), {&wiki_}, plat_, pool_, label);
    return lookups_since(service, before);
  };
  EXPECT_EQ(drain_once("after the cancel"), (Lookups{0, 1, 0}));
  EXPECT_EQ(drain_once("again"), (Lookups{1, 0, 1}));
}

// C's pattern depends on the operands' structure only: a request pinned to
// another threshold on the same operands misses the costs at its t, reuses
// the pair's pattern, and returns run_hh_cpu's bits at the pinned
// thresholds. The pair is held once.
TEST_F(ServiceTest, RequestAtASecondThresholdReusesThePattern) {
  SpgemmService service(plat_, pool_);
  service.submit({&enron_, nullptr, 0, 0, "planned"});
  const offset_t planned = service.drain().results[0].report.threshold_b;
  const offset_t t = 2 * planned + 1;
  const SymbolicCache::Stats before = service.symbolic_cache().stats();
  service.submit({&enron_, nullptr, t, t, "pinned"});
  const BatchResult pinned = service.drain();
  ASSERT_EQ(pinned.results[0].report.threshold_a, t);
  ASSERT_EQ(pinned.results[0].report.threshold_b, t);
  expect_serial_bits(pinned, {&enron_}, plat_, pool_, "pinned");
  EXPECT_EQ(lookups_since(service, before), (Lookups{0, 1, 1}));
  EXPECT_EQ(service.symbolic_cache().stats().entries, 1u);
}

TEST_F(ServiceTest, SymbolicCacheKeysOnTheSharedAccumulatorCap) {
  const std::int64_t original = shared_accum_cap();
  SpgemmService service(plat_, pool_);
  service.submit({&wiki_, nullptr, 0, 0, ""});
  service.drain();
  const SymbolicCache::Stats before = service.symbolic_cache().stats();
  set_shared_accum_cap(8);  // rows on both sides of the shared/global split
  service.submit({&wiki_, nullptr, 0, 0, ""});
  const BatchResult batch = service.drain();
  const Lookups lookups = lookups_since(service, before);
  expect_serial_bits(batch, {&wiki_}, plat_, pool_, "cap 8");
  set_shared_accum_cap(original);
  // The cap moves the costs, not C's pattern.
  EXPECT_EQ(lookups, (Lookups{0, 1, 1}));
}

// A drain drops the entries none of its requests used: the cache holds at
// most one drain's distinct set, and an entry skipped for a drain is
// rebuilt in the next.
TEST_F(ServiceTest, SymbolicEntryUnusedForADrainIsEvicted) {
  SpgemmService service(plat_, pool_);
  const auto drain_one = [&](const CsrMatrix& m) {
    service.submit({&m, nullptr, 0, 0, ""});
    service.drain();
    return service.symbolic_cache().stats();
  };
  EXPECT_EQ(drain_one(wiki_).entries, 1u);
  EXPECT_EQ(drain_one(enron_).entries, 1u);
  const SymbolicCache::Stats s = drain_one(wiki_);
  EXPECT_EQ(s.entries, 1u);
  EXPECT_EQ(s.hits, 0);
  EXPECT_EQ(s.misses, 3);
}

// ------------------------------------------------------------ wave executor

TEST_F(ServiceTest, WaveOutputsBitIdenticalAndUploadsDeduped) {
  SpgemmService::Config cfg;
  cfg.wave.enabled = true;
  SpgemmService waved(plat_, pool_, cfg);
  SpgemmService plain(plat_, pool_);
  const CsrMatrix* mats[] = {&wiki_, &enron_, &wiki_, &enron_, &wiki_,
                             &wiki_, &enron_, &enron_};
  for (SpgemmService* s : {&waved, &plain}) {
    for (const CsrMatrix* m : mats) s->submit({m, nullptr, 0, 0, ""});
  }
  const BatchResult w = waved.drain();
  const BatchResult p = plain.drain();
  ASSERT_EQ(w.results.size(), std::size(mats));
  for (std::size_t i = 0; i < std::size(mats); ++i) {
    const RunResult serial =
        run_hh_cpu(*mats[i], *mats[i], HhCpuOptions{}, plat_, pool_);
    expect_bit_identical(serial.c, w.results[i].c,
                         "wave request " + std::to_string(i));
    expect_bit_identical(p.results[i].c, w.results[i].c,
                         "wave vs plain " + std::to_string(i));
  }
  EXPECT_TRUE(w.batch.wave_enabled);
  EXPECT_GT(w.batch.wave.waves, 0);
  EXPECT_EQ(w.batch.wave.wave_requests,
            static_cast<std::int64_t>(std::size(mats)));
  // 8 requests over 2 distinct operands: dedup must have fired.
  EXPECT_GE(w.batch.wave.deduped_uploads, 1);
  EXPECT_GT(w.batch.wave.uploads, 0);
  // Every deduped use is PCIe traffic the plain schedule paid for.
  EXPECT_LT(w.batch.h2d_busy_s, p.batch.h2d_busy_s);
  EXPECT_NE(w.batch.to_json().find("\"wave\":{"), std::string::npos);
}

TEST_F(ServiceTest, WaveResidencyIsKeyedByContent) {
  // Same shape, nnz and row-size histogram — hence the same signature —
  // but different values: two uploads, no dedup, and each request computes
  // on its own operand.
  CsrMatrix doubled = wiki_;
  for (value_t& v : doubled.values) v *= 2;
  ASSERT_EQ(matrix_signature(wiki_), matrix_signature(doubled));
  SpgemmService::Config cfg;
  cfg.wave.enabled = true;
  SpgemmService service(plat_, pool_, cfg);
  service.submit({&wiki_, nullptr, 0, 0, "a"});
  service.submit({&doubled, nullptr, 0, 0, "2a"});
  const BatchResult r = service.drain();
  EXPECT_EQ(r.batch.wave.waves, 1);
  EXPECT_EQ(r.batch.wave.uploads, 2);
  EXPECT_EQ(r.batch.wave.deduped_uploads, 0);
  EXPECT_EQ(r.batch.wave.h2d_bytes,
            static_cast<std::int64_t>(wiki_.byte_size() + doubled.byte_size()));
  EXPECT_FALSE(r.requests[1].inputs_resident);
  // Planning depends only on the distribution: the plan is shared.
  EXPECT_TRUE(r.requests[1].plan_cache_hit);
  expect_bit_identical(
      run_hh_cpu(doubled, doubled, HhCpuOptions{}, plat_, pool_).c,
      r.results[1].c, "doubled");

  // A pointer-distinct, bit-identical copy finds the resident device copy.
  const CsrMatrix copy = wiki_;
  service.submit({&copy, nullptr, 0, 0, "copy"});
  const BatchResult again = service.drain();
  EXPECT_EQ(again.batch.wave.uploads, 0);
  EXPECT_TRUE(again.requests[0].inputs_resident);
  expect_bit_identical(r.results[0].c, again.results[0].c, "copy");
}

TEST_F(ServiceTest, WaveAllDistinctOperandsDedupIsNoOp) {
  const CsrMatrix a = test::random_csr(120, 120, 0.05, 11);
  const CsrMatrix b = test::random_csr(120, 120, 0.05, 12);
  const CsrMatrix c = test::random_csr(120, 120, 0.05, 13);
  SpgemmService::Config cfg;
  cfg.wave.enabled = true;
  SpgemmService service(plat_, pool_, cfg);
  for (const CsrMatrix* m : {&a, &b, &c}) {
    service.submit({m, nullptr, 0, 0, ""});
  }
  const BatchResult r = service.drain();
  EXPECT_EQ(r.batch.wave.deduped_uploads, 0);
  EXPECT_EQ(r.batch.wave.uploads, 3);
  for (std::size_t i = 0; i < 3; ++i) {
    const CsrMatrix* m = (i == 0) ? &a : (i == 1) ? &b : &c;
    const RunResult serial = run_hh_cpu(*m, *m, HhCpuOptions{}, plat_, pool_);
    expect_bit_identical(serial.c, r.results[i].c,
                         "distinct " + std::to_string(i));
  }
}

TEST_F(ServiceTest, WaveRefcountEvictionFiresWithoutStickyResidency) {
  SpgemmService::Config cfg;
  cfg.wave.enabled = true;
  cfg.keep_inputs_resident = false;
  SpgemmService service(plat_, pool_, cfg);
  for (int i = 0; i < 4; ++i) service.submit({&wiki_, nullptr, 0, 0, ""});
  const BatchResult r = service.drain();
  // One distinct operand, uploaded once, deduped three times, evicted when
  // its last user finished.
  EXPECT_EQ(r.batch.wave.uploads, 1);
  EXPECT_EQ(r.batch.wave.deduped_uploads, 3);
  EXPECT_GE(r.batch.wave.evictions, 1);
  // Sticky residency keeps the operand instead.
  SpgemmService::Config sticky;
  sticky.wave.enabled = true;
  SpgemmService keeper(plat_, pool_, sticky);
  for (int i = 0; i < 4; ++i) keeper.submit({&wiki_, nullptr, 0, 0, ""});
  EXPECT_EQ(keeper.drain().batch.wave.evictions, 0);
}

TEST_F(ServiceTest, WaveDisabledRunsOneRequestPerWave) {
  // A disabled wave executor is the one-request wave: no request shares an
  // upload or a launch, even when consecutive requests share an operand.
  SpgemmService plain(plat_, pool_);
  plain.submit({&wiki_, nullptr, 0, 0, "a"});
  plain.submit({&enron_, nullptr, 0, 0, "b"});
  plain.submit({&wiki_, nullptr, 0, 0, "c"});
  plain.submit({&wiki_, nullptr, 0, 0, "d"});
  const BatchResult p = plain.drain();
  EXPECT_FALSE(p.batch.wave_enabled);
  EXPECT_EQ(p.batch.wave.waves, 4);
  EXPECT_EQ(p.batch.wave.wave_requests, 4);
  EXPECT_EQ(p.batch.wave.coalesced_uploads, 0);
  EXPECT_EQ(p.batch.wave.deduped_uploads, 0);
  EXPECT_EQ(p.batch.wave.batched_launches, 0);
  for (std::size_t i = 0; i < p.results.size(); ++i) {
    const CsrMatrix& m = i == 1 ? enron_ : wiki_;
    expect_bit_identical(run_hh_cpu(m, m, {}, plat_, pool_).c, p.results[i].c,
                         "one-request wave " + std::to_string(i));
  }
}

TEST_F(ServiceTest, WaveRequestCapIsStrict) {
  // kMaxRequests requests sharing one operand fill a wave; the next one
  // opens a second wave even though it adds no operand.
  constexpr std::size_t kCap = WaveConfig::kMaxRequests;
  SpgemmService::Config cfg;
  cfg.wave.enabled = true;
  SpgemmService service(plat_, pool_, cfg);
  for (std::size_t i = 0; i <= kCap; ++i) {
    service.submit({&wiki_, nullptr, 0, 0, ""});
  }
  const BatchResult r = service.drain();
  EXPECT_TRUE(r.batch.wave_enabled);
  EXPECT_EQ(r.batch.wave.waves, 2);
  EXPECT_EQ(r.batch.wave.wave_requests, static_cast<std::int64_t>(kCap + 1));
  EXPECT_EQ(r.batch.wave.uploads, 1);  // resident after the first wave
  EXPECT_EQ(r.batch.wave.deduped_uploads,
            static_cast<std::int64_t>(kCap - 1));
  const CsrMatrix want = run_hh_cpu(wiki_, wiki_, {}, plat_, pool_).c;
  for (std::size_t i = 0; i < r.results.size(); ++i) {
    expect_bit_identical(want, r.results[i].c, "capped " + std::to_string(i));
  }
}

TEST_F(ServiceTest, WaveReportsAreReplayDeterministic) {
  // Same submissions through two fresh services: every report byte —
  // wave counters included — must match (same-seed replay determinism).
  const auto run = [&] {
    SpgemmService::Config cfg;
    cfg.wave.enabled = true;
    SpgemmService service(plat_, pool_, cfg);
    service.submit({&wiki_, nullptr, 0, 0, "a"});
    service.submit({&wiki_, nullptr, 0, 0, "b"});
    service.submit({&enron_, nullptr, 0, 0, "c"});
    return service.drain();
  };
  const BatchResult first = run();
  const BatchResult second = run();
  EXPECT_EQ(first.batch.to_json(), second.batch.to_json());
  EXPECT_EQ(first.batch.to_string(), second.batch.to_string());
  ASSERT_EQ(first.requests.size(), second.requests.size());
  for (std::size_t i = 0; i < first.requests.size(); ++i) {
    EXPECT_EQ(first.requests[i].to_json(), second.requests[i].to_json());
  }
}

}  // namespace
}  // namespace hh
