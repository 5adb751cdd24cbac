// Property tests for the ResourceTimeline insertion scheduler: whatever the
// reserve() sequence, spans on one resource never overlap, gaps stay
// consistent with occupancy, and zero-duration stages are stamped at the
// resource's true availability (never inside an occupied window).
#include "runtime/timeline.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "trace/trace.hpp"
#include "util/prng.hpp"

namespace hh {
namespace {

constexpr double kEps = 1e-12;

struct Placed {
  StageSpan span;
  double earliest;
};

// Drive one timeline with a random reserve() sequence and return the spans.
std::vector<Placed> random_schedule(ResourceTimeline& t, std::uint64_t seed,
                                    int n) {
  Xoshiro256 rng(seed);
  std::vector<Placed> placed;
  placed.reserve(static_cast<std::size_t>(n));
  double horizon = 0;
  for (int i = 0; i < n; ++i) {
    const double earliest = rng.uniform() * std::max(horizon, 1.0);
    // ~1 in 5 stages is instantaneous, the rest up to 0.3 "seconds".
    const double duration = rng.below(5) == 0 ? 0.0 : rng.uniform() * 0.3;
    const StageSpan s = t.reserve("stage", earliest, duration);
    placed.push_back({s, earliest});
    horizon = std::max(horizon, s.end_s);
  }
  return placed;
}

TEST(TimelineProperty, PositiveSpansNeverOverlap) {
  for (const std::uint64_t seed : {1ull, 7ull, 42ull, 1234ull}) {
    ResourceTimeline t;
    const auto placed = random_schedule(t, seed, 200);
    std::vector<StageSpan> spans;
    for (const Placed& p : placed) {
      if (p.span.duration_s() > 0) spans.push_back(p.span);
    }
    std::sort(spans.begin(), spans.end(),
              [](const StageSpan& a, const StageSpan& b) {
                return a.start_s < b.start_s;
              });
    for (std::size_t i = 1; i < spans.size(); ++i) {
      EXPECT_GE(spans[i].start_s, spans[i - 1].end_s - kEps)
          << "seed " << seed << ": spans " << i - 1 << " and " << i
          << " overlap";
    }
  }
}

TEST(TimelineProperty, SpansRespectEarliestAndBusyAddsUp) {
  for (const std::uint64_t seed : {3ull, 99ull, 2026ull}) {
    ResourceTimeline t;
    const auto placed = random_schedule(t, seed, 150);
    double total = 0;
    double last_end = 0;
    for (const Placed& p : placed) {
      EXPECT_GE(p.span.start_s, p.earliest - kEps);
      total += p.span.duration_s();
      last_end = std::max(last_end, p.span.end_s);
    }
    EXPECT_NEAR(t.busy(), total, 1e-9);
    EXPECT_NEAR(t.now(), last_end, 1e-9);
    EXPECT_LE(t.busy(), t.now() + kEps);  // can't be busier than the clock
  }
}

TEST(TimelineProperty, ZeroDurationNeverInsideOccupiedWindow) {
  // An instantaneous stage must not be stamped strictly inside any window
  // that was already occupied when it was placed (an instant reserves
  // nothing, so later stages may legitimately backfill over its timestamp).
  for (const std::uint64_t seed : {5ull, 17ull, 4321ull}) {
    ResourceTimeline t;
    const auto placed = random_schedule(t, seed, 200);
    for (std::size_t zi = 0; zi < placed.size(); ++zi) {
      const Placed& z = placed[zi];
      if (z.span.duration_s() > 0) continue;
      for (std::size_t si = 0; si < zi; ++si) {
        const Placed& s = placed[si];
        if (s.span.duration_s() <= 0) continue;
        const bool strictly_inside = z.span.start_s > s.span.start_s + kEps &&
                                     z.span.start_s < s.span.end_s - kEps;
        EXPECT_FALSE(strictly_inside)
            << "seed " << seed << ": instantaneous stage at "
            << z.span.start_s << " inside [" << s.span.start_s << ", "
            << s.span.end_s << "]";
      }
    }
  }
}

TEST(TimelineProperty, DeterministicAcrossRuns) {
  ResourceTimeline t1, t2;
  const auto a = random_schedule(t1, 77, 120);
  const auto b = random_schedule(t2, 77, 120);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].span.start_s, b[i].span.start_s);
    EXPECT_DOUBLE_EQ(a[i].span.end_s, b[i].span.end_s);
  }
}

TEST(TimelineProperty, BackfillSplitsGapsConsistently) {
  ResourceTimeline t;
  t.reserve("a", 0.0, 1.0);    // [0, 1]
  t.reserve("b", 5.0, 1.0);    // [5, 6], gap [1, 5]
  const StageSpan mid = t.reserve("mid", 2.0, 1.0);  // splits the gap
  EXPECT_DOUBLE_EQ(mid.start_s, 2.0);
  // The two half-gaps [1, 2] and [3, 5] must both still be usable.
  const StageSpan left = t.reserve("left", 0.0, 1.0);
  EXPECT_DOUBLE_EQ(left.start_s, 1.0);
  const StageSpan right = t.reserve("right", 0.0, 2.0);
  EXPECT_DOUBLE_EQ(right.start_s, 3.0);
  EXPECT_DOUBLE_EQ(t.busy(), 6.0);
  EXPECT_DOUBLE_EQ(t.now(), 6.0);
}

TEST(TimelineProperty, AvailableAtMatchesZeroDurationPlacement) {
  for (const std::uint64_t seed : {11ull, 311ull}) {
    ResourceTimeline t;
    random_schedule(t, seed, 100);
    Xoshiro256 rng(seed ^ 0xabcdef);
    for (int i = 0; i < 50; ++i) {
      const double ask = rng.uniform() * (t.now() * 1.2);
      const double avail = t.available_at(ask);
      EXPECT_GE(avail, ask - kEps);
      const StageSpan z = t.reserve("probe", ask, 0.0);
      EXPECT_DOUBLE_EQ(z.start_s, avail);
      EXPECT_DOUBLE_EQ(z.end_s, avail);
    }
  }
}

TEST(Timeline, RecordsPlacementsIntoAttachedTrace) {
  TraceRecorder rec;
  rec.enable();
  ASSERT_TRUE(rec.enabled());
  ResourceTimeline gpu(Resource::kGpu, &rec);
  ResourceTimeline h2d(Resource::kH2D, &rec);
  rec.begin_request(3);
  const StageSpan up = h2d.reserve("upload", 0.0, 0.5);
  const StageSpan k = gpu.reserve("kernel", up.end_s, 1.0);
  rec.end_request();
  gpu.reserve("untagged", 0.0, 0.25);  // no request in scope

  ASSERT_EQ(rec.events().size(), 3u);
  const TraceEvent& e0 = rec.events()[0];
  EXPECT_EQ(e0.kind, TraceEventKind::kSpan);
  EXPECT_EQ(e0.category, TraceCategory::kTransfer);
  EXPECT_EQ(e0.resource, Resource::kH2D);
  EXPECT_EQ(e0.request_id, 3u);
  EXPECT_DOUBLE_EQ(e0.start_s, up.start_s);
  EXPECT_DOUBLE_EQ(e0.end_s, up.end_s);
  const TraceEvent& e1 = rec.events()[1];
  EXPECT_EQ(e1.category, TraceCategory::kCompute);
  EXPECT_DOUBLE_EQ(e1.requested_s, up.end_s);  // dependence-allowed start
  EXPECT_DOUBLE_EQ(e1.start_s, k.start_s);
  EXPECT_EQ(rec.events()[2].request_id, kNoRequest);
}

TEST(Timeline, NullTraceRecordsNothing) {
  TraceRecorder rec;  // never enabled
  ResourceTimeline t(Resource::kCpu, &rec);
  t.reserve("a", 0.0, 1.0);
  EXPECT_TRUE(rec.events().empty());
}

}  // namespace
}  // namespace hh
