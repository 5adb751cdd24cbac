// Trace subsystem tests: recorder toggling, the metrics registry, the text
// flame views, and a golden check on the Chrome trace-event / Perfetto JSON
// export of a faulted service drain — the JSON must parse, per-resource
// spans must not overlap, and the recorded fault/retry/degrade/cancel
// instants must reconcile exactly with the BatchReport counters.
#include "trace/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>
#include <vector>

#include "gen/datasets.hpp"
#include "obs/replay.hpp"
#include "runtime/service.hpp"
#include "shard/sharded_service.hpp"
#include "trace/flame.hpp"
#include "trace/metrics.hpp"
#include "trace/perfetto_export.hpp"
#include "util/check.hpp"
#include "util/json.hpp"

namespace hh {
namespace {

int count_events(const TraceRecorder& rec, TraceCategory cat,
                 const char* name = nullptr) {
  int n = 0;
  for (const TraceEvent& e : rec.events()) {
    if (e.category != cat) continue;
    if (name != nullptr && std::string_view(e.name) != name) continue;
    ++n;
  }
  return n;
}

// ---------------------------------------------------------------- recorder

TEST(TraceRecorder, DisabledByDefaultRecordsNothing) {
  TraceRecorder rec;
  EXPECT_FALSE(rec.enabled());
  rec.span(TraceCategory::kCompute, "x", Resource::kCpu, 0, 1, 0);
  rec.instant(TraceCategory::kFault, "y", 0.5);
  EXPECT_TRUE(rec.events().empty());
}

TEST(TraceRecorder, EnableRecordsWithRequestIdentity) {
  TraceRecorder rec;
  rec.enable();
  ASSERT_TRUE(rec.enabled());
  rec.begin_request(12);
  rec.span(TraceCategory::kTransfer, "up", Resource::kH2D, 0.0, 0.5, 0.0);
  rec.instant_on(TraceCategory::kFault, "h2d-fault", Resource::kH2D, 0.5, 3);
  rec.end_request();
  rec.instant(TraceCategory::kScheduler, "tick", 1.0);
  ASSERT_EQ(rec.events().size(), 3u);
  EXPECT_EQ(rec.events()[0].request_id, 12u);
  EXPECT_EQ(rec.events()[0].device_op, kNoDeviceOp);  // spans carry none
  EXPECT_EQ(rec.events()[1].kind, TraceEventKind::kInstant);
  EXPECT_EQ(rec.events()[1].device_op, 3u);
  EXPECT_EQ(rec.events()[2].request_id, kNoRequest);
  EXPECT_FALSE(rec.events()[2].has_resource);

  rec.clear();
  EXPECT_TRUE(rec.events().empty());
  EXPECT_EQ(rec.current_request(), kNoRequest);
}

// ----------------------------------------------------------------- metrics

TEST(Metrics, CounterAndGaugeBasics) {
  MetricsRegistry reg;
  reg.counter("requests").inc();
  reg.counter("requests").inc(4);
  reg.gauge("depth").set(7.5);
  EXPECT_EQ(reg.counter("requests").value(), 5);
  EXPECT_DOUBLE_EQ(reg.gauge("depth").value(), 7.5);
  EXPECT_EQ(reg.size(), 2u);
  // find-or-create returns the same instrument.
  EXPECT_EQ(&reg.counter("requests"), &reg.counter("requests"));
}

TEST(Metrics, KindMismatchThrowsTypedError) {
  MetricsRegistry reg;
  reg.counter("x");
  EXPECT_THROW(reg.gauge("x"), InvalidArgumentError);
  EXPECT_THROW(reg.histogram("x", {1.0}), InvalidArgumentError);
  try {
    reg.gauge("x");
    FAIL() << "expected InvalidArgumentError";
  } catch (const InvalidArgumentError& e) {
    EXPECT_NE(std::string(e.what()).find("already registered as a counter"),
              std::string::npos);
  }
}

TEST(Metrics, NameValidation) {
  EXPECT_TRUE(valid_metric_name("service.completed"));
  EXPECT_TRUE(valid_metric_name("slo.p95:burn-rate"));
  EXPECT_TRUE(valid_metric_name("_private"));
  EXPECT_FALSE(valid_metric_name(""));
  EXPECT_FALSE(valid_metric_name("has space"));
  EXPECT_FALSE(valid_metric_name("9starts.with.digit"));
  EXPECT_FALSE(valid_metric_name(".leading.dot"));
  EXPECT_FALSE(valid_metric_name("new\nline"));

  MetricsRegistry reg;
  EXPECT_THROW(reg.counter("has space"), InvalidArgumentError);
  EXPECT_THROW(reg.gauge(""), InvalidArgumentError);
  EXPECT_THROW(reg.histogram("a b", {1.0}), InvalidArgumentError);
  reg.counter("ok.name");  // still accepted after the rejects
  EXPECT_EQ(reg.size(), 1u);
}

TEST(Metrics, Flattened) {
  MetricsRegistry reg;
  reg.counter("c").inc(3);
  reg.gauge("g").set(2.5);
  Histogram& h = reg.histogram("h", {1.0});
  h.observe(0.5);
  h.observe(4.0);
  const std::vector<FlatMetric> flat = reg.flattened();
  ASSERT_EQ(flat.size(), 4u);  // c, g, h.count, h.sum
  EXPECT_EQ(flat[0].name, "c");
  EXPECT_EQ(flat[0].kind, 'c');
  EXPECT_EQ(flat[0].value, 3.0);
  EXPECT_EQ(flat[1].name, "g");
  EXPECT_EQ(flat[1].kind, 'g');
  EXPECT_EQ(flat[2].name, "h.count");
  EXPECT_EQ(flat[2].kind, 'h');
  EXPECT_EQ(flat[2].value, 2.0);
  EXPECT_EQ(flat[3].name, "h.sum");
  EXPECT_EQ(flat[3].value, 4.5);
}

TEST(Metrics, HistogramBucketsAndPercentile) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("lat", {1.0, 10.0, 100.0});
  for (const double x : {0.5, 0.9, 5.0, 50.0, 500.0}) h.observe(x);
  EXPECT_EQ(h.count(), 5);
  EXPECT_NEAR(h.sum(), 556.4, 1e-9);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 500.0);
  ASSERT_EQ(h.bucket_counts().size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(h.bucket_counts()[0], 2);       // <= 1
  EXPECT_EQ(h.bucket_counts()[1], 1);       // (1, 10]
  EXPECT_EQ(h.bucket_counts()[2], 1);       // (10, 100]
  EXPECT_EQ(h.bucket_counts()[3], 1);       // overflow
  // Interpolated rank within the containing bucket (Prometheus
  // histogram_quantile style): a rank landing on a bucket's upper edge
  // answers with the bound itself.
  EXPECT_DOUBLE_EQ(h.percentile(0.40), 1.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.60), 10.0);
  // Rank 2.5 sits halfway through the (1, 10] bucket: 1 + 0.5 * 9 = 5.5.
  // The answer can be off by at most the containing bucket's width.
  EXPECT_DOUBLE_EQ(h.percentile(0.50), 5.5);
  // Overflow bucket interpolates toward (and is clamped to) the observed
  // maximum.
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 500.0);
}

TEST(Metrics, EmptyHistogramIsZero) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("empty", latency_buckets_s());
  EXPECT_EQ(h.count(), 0);
  EXPECT_DOUBLE_EQ(h.percentile(0.99), 0.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
}

TEST(Metrics, LatencyBucketsAscending) {
  const std::vector<double> b = latency_buckets_s();
  ASSERT_GE(b.size(), 2u);
  for (std::size_t i = 1; i < b.size(); ++i) EXPECT_LT(b[i - 1], b[i]);
}

TEST(Metrics, ExportsAreWellFormed) {
  MetricsRegistry reg;
  reg.counter("service.requests").inc(3);
  reg.gauge("plan_cache.size").set(2);
  reg.histogram("service.latency_s", {0.001, 0.1}).observe(0.05);
  const std::string text = reg.to_string();
  EXPECT_NE(text.find("service.requests 3"), std::string::npos);
  EXPECT_NE(text.find("plan_cache.size"), std::string::npos);
  EXPECT_NE(text.find("service.latency_s_count 1"), std::string::npos);
  const std::string json = reg.to_json();
  EXPECT_NO_THROW(parse_json(json)) << json;
}

// ------------------------------------------------------------- flame views

TEST(Flame, ViewPaintsSpansPerResource) {
  std::vector<TraceEvent> events;
  events.push_back({TraceEventKind::kSpan, TraceCategory::kCompute, "a",
                    true, Resource::kCpu, 0, 0.0, 0.5, 0.0, kNoDeviceOp});
  events.push_back({TraceEventKind::kSpan, TraceCategory::kCompute, "b",
                    true, Resource::kGpu, 1, 0.5, 1.0, 0.5, kNoDeviceOp});
  const std::string view = flame_view(events, 16);
  ASSERT_FALSE(view.empty());
  EXPECT_NE(view.find("cpu"), std::string::npos);
  EXPECT_NE(view.find('0'), std::string::npos);  // request 0's glyph
  EXPECT_NE(view.find('1'), std::string::npos);  // request 1's glyph
  // Four rows, one per resource.
  EXPECT_EQ(std::count(view.begin(), view.end(), '\n'), kResourceCount);
}

TEST(Flame, ViewEmptyWhenNothingRecorded) {
  EXPECT_TRUE(flame_view(std::vector<TraceEvent>{}, 32).empty());
}

TEST(Flame, RowMarksFaultAttempts) {
  std::vector<StageSpan> spans;
  spans.push_back({"phase2-gpu-abort", Resource::kGpu, 0.0, 0.4});
  spans.push_back({"phase2-gpu", Resource::kGpu, 0.5, 1.0});
  const std::string row = flame_row(spans, 0.0, 1.0, 20);
  EXPECT_EQ(row.size(), 20u);
  EXPECT_NE(row.find('!'), std::string::npos);
  EXPECT_NE(row.find('G'), std::string::npos);
}

// -------------------------------------------- golden faulted-drain export

class TracedServiceTest : public testing::Test {
 protected:
  TracedServiceTest()
      : wiki_(make_dataset(dataset_spec("wiki-Vote"), 0.05)),
        enron_(make_dataset(dataset_spec("email-Enron"), 0.03)),
        pool_(2) {}

  const CsrMatrix& mat(std::size_t i) const {
    return i % 2 == 0 ? wiki_ : enron_;
  }

  CsrMatrix wiki_;
  CsrMatrix enron_;
  HeteroPlatform plat_;
  ThreadPool pool_;
};

TEST_F(TracedServiceTest, FaultedDrainExportsConsistentPerfettoTrace) {
  TraceRecorder rec;
  rec.enable();

  SpgemmService::Config cfg;
  cfg.trace = &rec;
  cfg.fault_plan.gpu_kernel.rate = 0.25;
  cfg.fault_plan.h2d.rate = 0.15;
  cfg.fault_plan.d2h.rate = 0.15;
  cfg.fault_plan.cpu_worker.rate = 0.10;
  cfg.keep_inputs_resident = false;  // every request pays (faultable) H2D
  SpgemmService service(plat_, pool_, cfg);

  constexpr std::size_t kRequests = 32;
  for (std::size_t i = 0; i < kRequests; ++i) {
    service.submit({&mat(i), nullptr, 0, 0, "q" + std::to_string(i)});
  }
  const BatchResult batch = service.drain();
  const BatchReport& b = batch.batch;
  ASSERT_EQ(b.requests, kRequests);
  ASSERT_GT(b.faults.total_faults(), 0) << "fault plan injected nothing";

  // 1. The export is syntactically valid JSON with the expected skeleton.
  const std::string json = chrome_trace_json(rec);
  EXPECT_NO_THROW(parse_json(json));
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);  // spans
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);  // instants
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);  // flow arrows
  EXPECT_NE(json.find("\"cat\":\"fault\""), std::string::npos);

  // 2. Per-resource span events never overlap: the insertion scheduler's
  //    core invariant, now checked on the exported record itself.
  for (int r = 0; r < kResourceCount; ++r) {
    std::vector<const TraceEvent*> spans;
    for (const TraceEvent& e : rec.events()) {
      if (e.kind == TraceEventKind::kSpan && e.has_resource &&
          static_cast<int>(e.resource) == r) {
        spans.push_back(&e);
      }
    }
    std::sort(spans.begin(), spans.end(),
              [](const TraceEvent* a, const TraceEvent* b2) {
                return a->start_s < b2->start_s;
              });
    for (std::size_t i = 1; i < spans.size(); ++i) {
      EXPECT_GE(spans[i]->start_s, spans[i - 1]->end_s - 1e-12)
          << to_string(static_cast<Resource>(r)) << " spans overlap: "
          << spans[i - 1]->name << " and " << spans[i]->name;
    }
    // A span never starts before the dependence-allowed earliest.
    for (const TraceEvent* e : spans) {
      EXPECT_GE(e->start_s, e->requested_s - 1e-12);
    }
  }

  // 3. Recorded events reconcile exactly with the BatchReport counters.
  EXPECT_EQ(count_events(rec, TraceCategory::kFault, "gpu-abort"),
            b.faults.gpu_aborts);
  EXPECT_EQ(count_events(rec, TraceCategory::kFault, "h2d-fault") +
                count_events(rec, TraceCategory::kFault, "h2d-corrupt"),
            b.faults.h2d_faults);
  EXPECT_EQ(count_events(rec, TraceCategory::kFault, "d2h-fault") +
                count_events(rec, TraceCategory::kFault, "d2h-corrupt"),
            b.faults.d2h_faults);
  EXPECT_EQ(count_events(rec, TraceCategory::kFault, "h2d-corrupt") +
                count_events(rec, TraceCategory::kFault, "d2h-corrupt"),
            b.faults.corruptions);
  EXPECT_EQ(count_events(rec, TraceCategory::kFault, "cpu-stall"),
            b.faults.cpu_stalls);
  EXPECT_EQ(count_events(rec, TraceCategory::kRetry),
            b.faults.retries);
  EXPECT_EQ(count_events(rec, TraceCategory::kDegrade),
            static_cast<int>(b.degraded));
  EXPECT_EQ(count_events(rec, TraceCategory::kCancel),
            static_cast<int>(b.deadline_missed));
  // Every request was cacheable, so plan-cache decisions cover the batch.
  EXPECT_EQ(count_events(rec, TraceCategory::kScheduler, "plan-cache-hit") +
                count_events(rec, TraceCategory::kScheduler,
                             "plan-cache-miss"),
            static_cast<int>(kRequests));

  // 4. The reports' spans are read from the trace, one per placement.
  std::size_t report_spans = 0;
  for (const RequestReport& r : batch.requests) report_spans += r.spans.size();
  std::size_t traced_spans = 0;
  for (const TraceEvent& e : rec.events()) {
    if (e.kind == TraceEventKind::kSpan) ++traced_spans;
  }
  EXPECT_EQ(traced_spans, report_spans);

  // 5. The lifetime metrics agree with the drain's snapshot.
  MetricsRegistry& m = service.metrics();
  EXPECT_EQ(m.counter("service.requests").value(),
            static_cast<std::int64_t>(kRequests));
  EXPECT_EQ(m.counter("service.retries").value(), b.faults.retries);
  EXPECT_EQ(m.counter("service.degraded").value(),
            static_cast<std::int64_t>(b.degraded));
  EXPECT_EQ(m.counter("plan_cache.hits").value(), b.plan_cache.hits);
  EXPECT_EQ(m.counter("plan_cache.misses").value(), b.plan_cache.misses);
  EXPECT_NO_THROW(parse_json(m.to_json()));

  // 6. The report JSON stays valid with the new fields present.
  EXPECT_NO_THROW(parse_json(b.to_json()));
  EXPECT_NO_THROW(parse_json(batch.requests.front().to_json()));
  EXPECT_FALSE(b.flame.empty());
  EXPECT_FALSE(batch.requests.front().flame.empty());
}

TEST_F(TracedServiceTest, DeadlineCancellationsAreTraced) {
  TraceRecorder rec;
  rec.enable();
  SpgemmService::Config cfg;
  cfg.trace = &rec;
  SpgemmService service(plat_, pool_, cfg);
  SpgemmRequest doomed{&wiki_, nullptr, 0, 0, "doomed"};
  doomed.deadline_s = 1e-12;  // nothing can finish in a picosecond
  service.submit(doomed);
  const BatchResult batch = service.drain();
  ASSERT_EQ(batch.batch.deadline_missed, 1u);
  EXPECT_EQ(count_events(rec, TraceCategory::kCancel), 1);
  EXPECT_NO_THROW(parse_json(chrome_trace_json(rec)));
}

// A drain records into the attached recorder when it is enabled and into
// its own otherwise; the reports must not tell the two apart. Two drains,
// so the second reads only its own events from a recorder that already
// holds the first's.
TEST_F(TracedServiceTest, DisabledRecorderStaysEmptyAndOutputMatches) {
  TraceRecorder off;  // attached but never enabled
  TraceRecorder on;
  on.enable();
  SpgemmService::Config cfg;
  cfg.fault_plan.gpu_kernel.rate = 0.2;
  cfg.fault_plan.h2d.rate = 0.1;
  cfg.fault_plan.cpu_worker.rate = 0.1;
  cfg.keep_inputs_resident = false;
  cfg.wave.enabled = true;
  SpgemmService plain(plat_, pool_, cfg);
  cfg.trace = &off;
  SpgemmService untraced(plat_, pool_, cfg);
  cfg.trace = &on;
  SpgemmService traced(plat_, pool_, cfg);

  std::size_t on_events = 0;
  for (int drain = 0; drain < 2; ++drain) {
    std::vector<BatchResult> out;
    for (SpgemmService* s : {&plain, &untraced, &traced}) {
      for (std::size_t i = 0; i < 6; ++i) {
        s->submit({&mat(i), nullptr, 0, 0, "d" + std::to_string(drain)});
      }
      out.push_back(s->drain());
    }
    EXPECT_TRUE(off.events().empty());
    EXPECT_GT(on.events().size(), on_events) << "drain " << drain;
    on_events = on.events().size();
    const BatchResult& p = out[0];
    ASSERT_FALSE(p.batch.flame.empty());
    for (std::size_t k = 1; k < out.size(); ++k) {
      const BatchResult& t = out[k];
      EXPECT_EQ(t.batch.to_json(), p.batch.to_json()) << "drain " << drain;
      EXPECT_EQ(t.batch.to_string(), p.batch.to_string()) << "drain " << drain;
      ASSERT_EQ(t.requests.size(), p.requests.size());
      for (std::size_t i = 0; i < p.requests.size(); ++i) {
        EXPECT_EQ(t.requests[i].to_json(), p.requests[i].to_json());
        EXPECT_EQ(t.requests[i].to_string(), p.requests[i].to_string());
        EXPECT_EQ(t.results[i].c.indptr, p.results[i].c.indptr);
        EXPECT_EQ(t.results[i].c.indices, p.results[i].c.indices);
        EXPECT_EQ(t.results[i].c.values, p.results[i].c.values);
      }
    }
  }
}

// Caller-supplied text reaches JSON escaped: the request report, the
// batch's critical-path breakdown and the replay report's explainer all
// carry the label.
TEST_F(TracedServiceTest, LabelsAreJsonEscaped) {
  const std::string label = "q\"\\x";  // q"\x
  SpgemmService service(plat_, pool_);
  service.submit({&wiki_, nullptr, 0, 0, label});
  const BatchResult batch = service.drain();
  const std::string request_json = batch.requests.front().to_json();
  const std::string batch_json = batch.batch.to_json();
  EXPECT_NO_THROW(parse_json(request_json)) << request_json;
  EXPECT_NO_THROW(parse_json(batch_json)) << batch_json;
  EXPECT_NE(request_json.find("\"label\":\"q\\\"\\\\x\""), std::string::npos)
      << request_json;

  ReplayRunReport replay;
  const RequestCostBreakdown* why =
      batch.batch.critpath.find_request(batch.requests.front().request_id);
  ASSERT_NE(why, nullptr);
  replay.slowest = why->explain();
  ASSERT_NE(replay.slowest.find(label), std::string::npos);
  EXPECT_NO_THROW(parse_json(replay.to_json())) << replay.to_json();
}

// ------------------------------------------ sharded-group trace export

TEST_F(TracedServiceTest, ShardedGroupExportsPerShardTracks) {
  TraceRecorder rec;
  rec.enable();

  ShardedSpgemmService::Config gcfg;
  gcfg.shards = 2;
  gcfg.trace = &rec;
  // Kill shard 0 in round 1 so the group-level kShard instants (kill,
  // failover, restart) land in the trace alongside the per-shard spans.
  gcfg.shard_faults.trigger_ops = {0};
  ShardedSpgemmService group(plat_, pool_, gcfg);

  constexpr std::size_t kRequests = 12;
  for (std::size_t i = 0; i < kRequests; ++i) {
    group.submit({&mat(i), nullptr, 0, 0, "g" + std::to_string(i)});
  }
  const GroupResult gr = group.drain();
  ASSERT_EQ(gr.group.requests, kRequests);
  ASSERT_EQ(gr.group.completed, kRequests);
  ASSERT_EQ(gr.group.kills, 1u);

  // The export is valid JSON and renders each shard as its own process.
  const std::string json = chrome_trace_json(rec);
  EXPECT_NO_THROW(parse_json(json));
  EXPECT_NE(json.find("\"hh-runtime\""), std::string::npos);
  EXPECT_NE(json.find("\"hh-shard-0\""), std::string::npos);
  EXPECT_NE(json.find("\"hh-shard-1\""), std::string::npos);

  // Group-level kShard instants live on track 0; every span was re-recorded
  // on its shard's track (never the group track).
  for (const TraceEvent& e : rec.events()) {
    if (e.category == TraceCategory::kShard) {
      EXPECT_EQ(e.track, 0u);
    }
    if (e.kind == TraceEventKind::kSpan) {
      EXPECT_GE(e.track, 1u);
      EXPECT_LE(e.track, gcfg.shards);
    }
  }
  EXPECT_GT(count_events(rec, TraceCategory::kShard), 0);

  // Per-(track, resource) spans never overlap: each shard has its own four
  // timelines, and separating tracks is what keeps two shards' concurrent
  // GPU work from rendering as a single impossible row.
  bool saw_span = false;
  for (std::uint32_t t = 1; t <= gcfg.shards; ++t) {
    for (int r = 0; r < kResourceCount; ++r) {
      std::vector<const TraceEvent*> spans;
      for (const TraceEvent& e : rec.events()) {
        if (e.kind == TraceEventKind::kSpan && e.track == t &&
            e.has_resource && static_cast<int>(e.resource) == r) {
          spans.push_back(&e);
        }
      }
      std::sort(spans.begin(), spans.end(),
                [](const TraceEvent* a, const TraceEvent* b2) {
                  return a->start_s < b2->start_s;
                });
      for (std::size_t i = 1; i < spans.size(); ++i) {
        EXPECT_GE(spans[i]->start_s, spans[i - 1]->end_s - 1e-12)
            << "shard " << t - 1 << " "
            << to_string(static_cast<Resource>(r)) << " spans overlap";
      }
      saw_span = saw_span || !spans.empty();
    }
  }
  EXPECT_TRUE(saw_span);

  // Span counts reconcile with the group result: one traced span per stage
  // span every request report carries.
  std::size_t report_spans = 0;
  for (const RequestReport& r : gr.requests) report_spans += r.spans.size();
  std::size_t traced_spans = 0;
  for (const TraceEvent& e : rec.events()) {
    if (e.kind == TraceEventKind::kSpan) ++traced_spans;
  }
  EXPECT_EQ(traced_spans, report_spans);
}

}  // namespace
}  // namespace hh
