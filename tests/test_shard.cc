#include "shard/sharded_service.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/hh_cpu.hpp"
#include "runtime/plan_cache.hpp"
#include "runtime/signature.hpp"
#include "shard/ring.hpp"
#include "shard/snapshot.hpp"
#include "test_util.hpp"
#include "util/json.hpp"
#include "util/prng.hpp"
#include "util/status.hpp"

namespace hh {
namespace {

// ------------------------------------------------------------------- ring

TEST(HashRing, SameSeedBuildsTheSameRing) {
  const HashRing r1(4, 16, 0xabcULL);
  const HashRing r2(4, 16, 0xabcULL);
  const HashRing other(4, 16, 0xdefULL);
  bool any_differs = false;
  for (std::uint64_t k = 0; k < 256; ++k) {
    std::uint64_t st = k;
    const std::uint64_t h = splitmix64(st);
    EXPECT_EQ(r1.owner(h), r2.owner(h));
    any_differs = any_differs || r1.owner(h) != other.owner(h);
  }
  EXPECT_TRUE(any_differs);  // the seed actually places the ring
}

TEST(HashRing, EveryShardOwnsASliceOfTheKeySpace) {
  const HashRing ring(4, 16, 0x5a4dULL);
  std::vector<int> owned(4, 0);
  for (std::uint64_t k = 0; k < 4096; ++k) {
    std::uint64_t st = k;
    owned[ring.owner(splitmix64(st))]++;
  }
  for (int s = 0; s < 4; ++s) {
    // Loose balance bound: 16 virtual nodes keep every shard well above a
    // starvation share (perfect balance would be 1024 each).
    EXPECT_GT(owned[s], 200) << "shard " << s;
  }
}

TEST(HashRing, RouteSkipsIneligibleShardsAndReportsNoShard) {
  const HashRing ring(4, 16, 0x5a4dULL);
  std::uint64_t st = 42;
  const std::uint64_t h = splitmix64(st);
  const std::size_t owner = ring.owner(h);

  std::vector<bool> all(4, true);
  EXPECT_EQ(ring.route(h, all), owner);

  std::vector<bool> without_owner(4, true);
  without_owner[owner] = false;
  const std::size_t successor = ring.route(h, without_owner);
  ASSERT_NE(successor, kNoShard);
  EXPECT_NE(successor, owner);
  EXPECT_TRUE(without_owner[successor]);

  const std::vector<bool> none(4, false);
  EXPECT_EQ(ring.route(h, none), kNoShard);
}

// ------------------------------------------------------------ shard group

void expect_bit_identical(const CsrMatrix& want, const CsrMatrix& got,
                          const std::string& label) {
  EXPECT_EQ(want.rows, got.rows) << label;
  EXPECT_EQ(want.cols, got.cols) << label;
  EXPECT_EQ(want.indptr, got.indptr) << label;
  EXPECT_EQ(want.indices, got.indices) << label;
  EXPECT_EQ(want.values, got.values) << label;  // exact, not approximate
}

/// The group's routing key for a self-product request: the same
/// (PlanKeyHash → splitmix64) chain ShardedSpgemmService::request_hash uses,
/// so tests can predict which shard owns a matrix and aim trigger_ops kills.
std::uint64_t ring_hash(const CsrMatrix& m) {
  const MatrixSignature sig = matrix_signature(m);
  std::uint64_t st =
      static_cast<std::uint64_t>(PlanKeyHash{}(PlanKey{sig, sig}));
  return splitmix64(st);
}

constexpr int kVnodes = ShardedSpgemmService::kVirtualNodes;

class ShardGroupTest : public testing::Test {
 protected:
  ShardGroupTest()
      : a_(test::random_csr(60, 60, 0.08, 11)),
        b_(test::random_csr(62, 62, 0.08, 22)),
        c_(test::random_csr(64, 64, 0.08, 33)),
        pool_(2) {}

  CsrMatrix reference(const CsrMatrix& m) {
    return run_hh_cpu(m, m, HhCpuOptions{}, plat_, pool_).c;
  }

  SpgemmRequest req(const CsrMatrix& m, double deadline_s = 0) {
    SpgemmRequest r;
    r.a = &m;
    r.deadline_s = deadline_s;
    return r;
  }

  CsrMatrix a_;
  CsrMatrix b_;
  CsrMatrix c_;
  HeteroPlatform plat_;
  ThreadPool pool_;
};

TEST_F(ShardGroupTest, RoutesBySignatureAndMatchesSerialReference) {
  ShardedSpgemmService::Config cfg;
  cfg.shards = 4;
  cfg.round_quantum = 8;
  ShardedSpgemmService group(plat_, pool_, cfg);

  const CsrMatrix* mats[] = {&a_, &b_, &c_, &a_, &b_, &c_, &a_, &a_};
  for (const CsrMatrix* m : mats) group.submit(req(*m));
  ASSERT_EQ(group.pending(), 8u);
  const GroupResult out = group.drain();
  EXPECT_EQ(group.pending(), 0u);
  ASSERT_EQ(out.results.size(), 8u);

  for (std::size_t i = 0; i < std::size(mats); ++i) {
    expect_bit_identical(reference(*mats[i]), out.results[i].c,
                         "request " + std::to_string(i));
  }

  const GroupBatchReport& g = out.group;
  EXPECT_EQ(g.requests, 8u);
  EXPECT_EQ(g.completed, 8u);
  EXPECT_EQ(g.deadline_missed, 0u);
  EXPECT_EQ(g.kills, 0u);
  EXPECT_EQ(g.failovers, 0u);
  EXPECT_EQ(g.rounds, 1u);  // 8 requests, quantum 8, no kills: one round
  EXPECT_GT(g.makespan_s, 0);
  EXPECT_LE(g.p50_latency_s, g.p95_latency_s);
  EXPECT_LE(g.p95_latency_s, g.p99_latency_s);
  EXPECT_LE(g.p99_latency_s, g.makespan_s + 1e-15);

  // Same-signature requests stick to the ring owner: each matrix's full
  // request count lands on its owner shard, and repeats hit its plan cache.
  std::size_t assigned_total = 0;
  std::int64_t hits = 0;
  std::int64_t misses = 0;
  for (const ShardReport& sr : g.shard_reports) {
    assigned_total += sr.assigned;
    hits += sr.plan_cache.hits;
    misses += sr.plan_cache.misses;
    EXPECT_EQ(sr.breaker, "closed");
  }
  EXPECT_EQ(assigned_total, 8u);
  EXPECT_EQ(g.shard_reports[group.ring().owner(ring_hash(a_))].assigned >= 4u,
            true);
  EXPECT_EQ(misses, 3);  // one cold identification per distinct signature
  EXPECT_EQ(hits, 5);
}

// A malformed operand on either side is rejected at the group's submit
// with a typed error, before any shard sees it.
class MalformedGroupSubmitTest
    : public ShardGroupTest,
      public testing::WithParamInterface<test::Malformation> {};

TEST_P(MalformedGroupSubmitTest, ThrowsInvalidArgument) {
  const CsrMatrix bad = test::malformed_4x4(GetParam());
  const CsrMatrix good = test::well_formed_4x4();
  ShardedSpgemmService group(plat_, pool_, {});
  for (int round = 0; round < 2; ++round) {
    EXPECT_THROW(group.submit({&bad, nullptr, 0, 0, ""}),
                 InvalidArgumentError);
    EXPECT_THROW(group.submit({&good, &bad, 0, 0, ""}), InvalidArgumentError);
  }
  EXPECT_EQ(group.pending(), 0u);
}

TEST_P(MalformedGroupSubmitTest, MessageNamesTheDefect) {
  const CsrMatrix bad = test::malformed_4x4(GetParam());
  const CsrMatrix good = test::well_formed_4x4();
  ShardedSpgemmService group(plat_, pool_, {});
  test::expect_malformed_message(
      [&] { group.submit({&bad, nullptr, 0, 0, ""}); }, "A", GetParam());
  test::expect_malformed_message(
      [&] { group.submit({&good, &bad, 0, 0, ""}); }, "B", GetParam());
}

INSTANTIATE_TEST_SUITE_P(Malformations, MalformedGroupSubmitTest,
                         testing::ValuesIn(test::kAllMalformations),
                         test::MalformationParamName());

// The group remembers an operand's full check until its next drain(): an
// operand changed after the drain is walked again at its next submit.
TEST_F(ShardGroupTest, OperandCheckLastsOneDrainWindow) {
  CsrMatrix m = test::well_formed_4x4();
  ShardedSpgemmService group(plat_, pool_, {});
  group.submit(req(m));
  group.submit(req(m));
  EXPECT_EQ(group.drain().group.completed, 2u);
  m.indices[3] = m.cols;
  EXPECT_THROW(group.submit(req(m)), InvalidArgumentError);
  EXPECT_EQ(group.pending(), 0u);
}

TEST_F(ShardGroupTest, GroupCapacityShedsWithTypedError) {
  ShardedSpgemmService::Config cfg;
  cfg.shards = 2;
  cfg.group_capacity = 2;
  ShardedSpgemmService group(plat_, pool_, cfg);

  SpgemmRequest bad;  // malformed: validated before routing
  EXPECT_THROW(group.submit(bad), InvalidArgumentError);

  group.submit(req(a_));
  group.submit(req(b_));
  EXPECT_THROW(group.submit(req(c_)), AdmissionError);
  EXPECT_EQ(group.pending(), 2u);

  const GroupResult out = group.drain();
  EXPECT_EQ(out.group.requests, 2u);
  EXPECT_EQ(out.group.completed, 2u);
  EXPECT_EQ(out.group.shed, 1u);
}

TEST_F(ShardGroupTest, KillMidBatchFailsOverWithZeroLossThenRehydrates) {
  ShardedSpgemmService::Config cfg;
  cfg.shards = 4;
  cfg.round_quantum = 8;
  cfg.seed = 0xfeedULL;
  cfg.restart_after_rounds = 2;
  // Kill A's owner shard in round 2 — after that round's submissions, so
  // its in-flight requests genuinely fail over.
  const HashRing ring(cfg.shards, kVnodes, cfg.seed);
  const std::size_t victim = ring.owner(ring_hash(a_));
  cfg.shard_faults.trigger_ops = {1 * cfg.shards + victim};
  ShardedSpgemmService group(plat_, pool_, cfg);

  // Drain 1 (round 1): warm every owner's plan cache; snapshots captured.
  for (const CsrMatrix* m : {&a_, &b_, &c_, &a_}) group.submit(req(*m));
  const GroupResult warm = group.drain();
  EXPECT_EQ(warm.group.completed, 4u);
  EXPECT_EQ(warm.group.kills, 0u);
  ASSERT_NE(group.stored_snapshot(victim), nullptr);
  EXPECT_TRUE(group.stored_snapshot(victim)->valid());

  // Drain 2 (rounds 2-3): the victim dies with requests in flight.
  const CsrMatrix* mats[] = {&a_, &a_, &b_, &a_, &c_};
  std::size_t expected_failovers = 0;
  for (const CsrMatrix* m : mats) {
    group.submit(req(*m));
    if (ring.owner(ring_hash(*m)) == victim) ++expected_failovers;
  }
  ASSERT_GE(expected_failovers, 3u);  // the three A requests at minimum
  const GroupResult out = group.drain();
  ASSERT_EQ(out.results.size(), 5u);
  for (std::size_t i = 0; i < std::size(mats); ++i) {
    EXPECT_TRUE(out.requests[i].status.ok()) << i;
    expect_bit_identical(reference(*mats[i]), out.results[i].c,
                         "failover request " + std::to_string(i));
  }
  const GroupBatchReport& g = out.group;
  EXPECT_EQ(g.completed, 5u);  // zero loss
  EXPECT_EQ(g.deadline_missed, 0u);
  EXPECT_EQ(g.kills, 1u);
  EXPECT_EQ(g.failovers, expected_failovers);
  EXPECT_EQ(g.rounds, 2u);  // kill round + the re-routed round
  EXPECT_EQ(g.shard_reports[victim].kills, 1u);
  EXPECT_EQ(g.shard_reports[victim].failovers_out, expected_failovers);
  EXPECT_EQ(g.shard_reports[victim].breaker, "dead");
  EXPECT_FALSE(group.alive(victim));
  EXPECT_EQ(group.shard_service(victim), nullptr);
  EXPECT_EQ(group.metrics().counter("shard.kills").value(), 1);
  EXPECT_EQ(group.metrics().counter("shard.failovers").value(),
            static_cast<std::int64_t>(expected_failovers));

  // Drain 3 (rounds 4-5): restart_after_rounds elapse, the victim restarts
  // half-open, rehydrates from its snapshot, and the probe request is a
  // plan-cache hit — no re-identification after the restart.
  group.submit(req(a_));
  group.submit(req(a_));
  const GroupResult back = group.drain();
  ASSERT_EQ(back.results.size(), 2u);
  expect_bit_identical(reference(a_), back.results[0].c, "probe");
  expect_bit_identical(reference(a_), back.results[1].c, "post-probe");
  EXPECT_EQ(back.group.completed, 2u);
  EXPECT_EQ(back.group.restarts, 1u);
  EXPECT_EQ(back.group.rounds, 2u);      // probe round + full-quantum round
  EXPECT_EQ(back.group.deferrals, 1u);   // the non-probe request waited
  EXPECT_TRUE(back.group.shard_reports[victim].rehydrated);
  EXPECT_FALSE(back.group.shard_reports[victim].snapshot_rejected);
  EXPECT_TRUE(group.alive(victim));
  EXPECT_EQ(group.breaker_state(victim), BreakerState::kClosed);
  ASSERT_NE(group.shard_service(victim), nullptr);
  const PlanCache::Stats& stats =
      group.shard_service(victim)->plan_cache().stats();
  EXPECT_EQ(stats.hits, 2);    // both served from the rehydrated snapshot
  EXPECT_EQ(stats.misses, 0);
  EXPECT_EQ(group.metrics().counter("shard.restarts").value(), 1);
  EXPECT_EQ(group.metrics().counter("shard.rehydrations").value(), 1);
}

TEST_F(ShardGroupTest, TamperedSnapshotIsRejectedAndTheShardColdStarts) {
  ShardedSpgemmService::Config cfg;
  cfg.shards = 4;
  cfg.round_quantum = 8;
  cfg.seed = 0xfeedULL;
  cfg.restart_after_rounds = 2;
  const HashRing ring(cfg.shards, kVnodes, cfg.seed);
  const std::size_t victim = ring.owner(ring_hash(a_));
  cfg.shard_faults.trigger_ops = {1 * cfg.shards + victim};
  ShardedSpgemmService group(plat_, pool_, cfg);

  group.submit(req(a_));
  group.drain();  // round 1: warm + snapshot

  ShardSnapshot* snap = group.stored_snapshot(victim);
  ASSERT_NE(snap, nullptr);
  ASSERT_FALSE(snap->plans.empty());
  snap->plans[0].second.threshold_a += 1;  // bit-rot without checksum update
  EXPECT_FALSE(snap->valid());

  group.submit(req(a_));
  const GroupResult killed = group.drain();  // rounds 2-3: kill + failover
  EXPECT_EQ(killed.group.kills, 1u);
  EXPECT_EQ(killed.group.completed, 1u);

  group.submit(req(a_));
  const GroupResult back = group.drain();  // rounds 4-5: restart
  EXPECT_EQ(back.group.restarts, 1u);
  EXPECT_TRUE(back.group.shard_reports[victim].snapshot_rejected);
  EXPECT_FALSE(back.group.shard_reports[victim].rehydrated);
  EXPECT_EQ(group.metrics().counter("shard.snapshots_rejected").value(), 1);
  EXPECT_EQ(group.metrics().counter("shard.rehydrations").value(), 0);
  // Cold start: the probe re-identifies instead of trusting corrupt state —
  // and the output is still bit-identical to the serial reference.
  ASSERT_NE(group.shard_service(victim), nullptr);
  EXPECT_EQ(group.shard_service(victim)->plan_cache().stats().misses, 1);
  EXPECT_EQ(group.shard_service(victim)->plan_cache().stats().hits, 0);
  expect_bit_identical(reference(a_), back.results[0].c, "cold restart");
}

TEST_F(ShardGroupTest, BreakerOpensProbesHalfOpenAndSpillsWhileOpen) {
  // The walk below is written for these health constants.
  static_assert(ShardedSpgemmService::kConsecutiveFailures == 3);
  static_assert(ShardedSpgemmService::kOpenRounds == 2);
  static_assert(ShardedSpgemmService::kHalfOpenProbes == 1);
  ShardedSpgemmService::Config cfg;
  cfg.shards = 2;
  cfg.round_quantum = 4;
  ShardedSpgemmService group(plat_, pool_, cfg);
  const std::size_t owner = group.ring().owner(ring_hash(a_));
  const std::size_t other = 1 - owner;

  // Round 1: three straight deadline misses trip the owner's breaker.
  for (int i = 0; i < 3; ++i) group.submit(req(a_, 1e-12));
  const GroupResult tripped = group.drain();
  EXPECT_EQ(tripped.group.deadline_missed, 3u);
  EXPECT_EQ(tripped.group.completed, 0u);
  EXPECT_EQ(group.breaker_state(owner), BreakerState::kOpen);
  EXPECT_EQ(tripped.group.shard_reports[owner].breaker_opens, 1u);
  EXPECT_EQ(tripped.group.shard_reports[owner].breaker, "open");

  // Round 2: the breaker is still open, so one quantum of A's traffic spills
  // to the ring successor and the rest defers. Round 3: two rounds after
  // the trip it half-opens; one probe goes through (the rest defers — no
  // spill while probing), and the clean probe closes the breaker. Round 4:
  // the backlog drains at full quantum on the owner.
  for (int i = 0; i < 9; ++i) group.submit(req(a_));
  const GroupResult recovered = group.drain();
  EXPECT_EQ(recovered.group.completed, 9u);
  EXPECT_EQ(recovered.group.rounds, 3u);
  EXPECT_EQ(recovered.group.deferrals, 9u);  // 5 behind the spill, 4 behind
                                             // the probe
  EXPECT_EQ(recovered.group.shard_reports[other].assigned, 4u);
  EXPECT_EQ(recovered.group.shard_reports[owner].assigned, 5u);
  EXPECT_EQ(group.breaker_state(owner), BreakerState::kClosed);
  EXPECT_EQ(group.metrics().counter("shard.breaker_half_opens").value(), 1);
  EXPECT_EQ(group.metrics().counter("shard.breaker_closes").value(), 1);
  for (std::size_t i = 0; i < 9; ++i) {
    expect_bit_identical(reference(a_), recovered.results[i].c,
                         "recovered " + std::to_string(i));
  }

  // Round 5: trip it again...
  for (int i = 0; i < 3; ++i) group.submit(req(a_, 1e-12));
  group.drain();
  ASSERT_EQ(group.breaker_state(owner), BreakerState::kOpen);

  // Rounds 6-8: ...and fail the first probe. Round 6 spills a quantum while
  // the breaker is open; round 7 half-opens and the probe misses its
  // deadline, so the breaker re-opens (one more health-driven open on the
  // owner) and the two requests behind it spill in round 8.
  for (int i = 0; i < 4; ++i) group.submit(req(a_));
  group.submit(req(a_, 1e-12));  // the probe: misses its deadline
  group.submit(req(a_));
  group.submit(req(a_));
  const GroupResult reprobed = group.drain();
  EXPECT_EQ(reprobed.group.rounds, 3u);
  EXPECT_EQ(group.breaker_state(owner), BreakerState::kOpen);
  EXPECT_EQ(reprobed.group.shard_reports[owner].breaker_opens, 1u);
  EXPECT_EQ(reprobed.group.shard_reports[owner].assigned, 1u);
  EXPECT_EQ(reprobed.group.shard_reports[other].assigned, 6u);
  EXPECT_EQ(reprobed.group.deferrals, 5u);  // 3 behind the spill, 2 behind
                                            // the probe
  EXPECT_EQ(reprobed.group.completed, 6u);
  EXPECT_EQ(reprobed.group.deadline_missed, 1u);
  EXPECT_TRUE(reprobed.requests[4].deadline_missed);
  for (const std::size_t i : {0, 1, 2, 3, 5, 6}) {
    expect_bit_identical(reference(a_), reprobed.results[i].c,
                         "reprobe " + std::to_string(i));
  }

  // Round 9: the next probe is clean and closes the breaker.
  group.submit(req(a_));
  const GroupResult closed = group.drain();
  EXPECT_EQ(closed.group.rounds, 1u);
  EXPECT_EQ(closed.group.shard_reports[owner].assigned, 1u);
  EXPECT_EQ(group.breaker_state(owner), BreakerState::kClosed);
  EXPECT_EQ(group.metrics().counter("shard.breaker_half_opens").value(), 3);
  EXPECT_EQ(group.metrics().counter("shard.breaker_closes").value(), 2);
  expect_bit_identical(reference(a_), closed.results[0].c, "closed probe");
}

TEST_F(ShardGroupTest, OpenBreakerSpillsTrafficToTheRingSuccessor) {
  ShardedSpgemmService::Config cfg;
  cfg.shards = 2;
  cfg.round_quantum = 8;
  ShardedSpgemmService group(plat_, pool_, cfg);
  const std::size_t owner = group.ring().owner(ring_hash(a_));
  const std::size_t other = 1 - owner;

  for (int i = 0; i < 3; ++i) group.submit(req(a_, 1e-12));
  group.drain();
  ASSERT_EQ(group.breaker_state(owner), BreakerState::kOpen);

  // Round 2: the owner is still cooling down, so its keys re-route to the
  // ring successor rather than waiting out the breaker.
  for (int i = 0; i < 5; ++i) group.submit(req(a_));
  const GroupResult spilled = group.drain();
  EXPECT_EQ(spilled.group.rounds, 1u);
  EXPECT_EQ(spilled.group.completed, 5u);
  EXPECT_EQ(spilled.group.shard_reports[owner].assigned, 0u);
  EXPECT_EQ(spilled.group.shard_reports[other].assigned, 5u);
  EXPECT_EQ(group.breaker_state(owner), BreakerState::kOpen);
  for (std::size_t i = 0; i < 5; ++i) {
    expect_bit_identical(reference(a_), spilled.results[i].c,
                         "spill " + std::to_string(i));
  }
}

// The quarantine ledger across a restart: a plan quarantined after the
// snapshot was taken must not be resurrected by rehydration while its TTL
// holds — even though the snapshot legitimately contains the re-learned
// plan. Once the TTL expires, rehydration may serve it again. The TTL is a
// constant, so the scenario moves the restart instead.
struct QuarantineProbe {
  bool rehydrated = false;
  std::int64_t hits = 0;
  std::int64_t misses = 0;
};

class ShardQuarantineTest : public ShardGroupTest {
 protected:
  // The kill lands in round 3 and the victim restarts in round
  // 3 + restart_after_rounds; rounds 5.. before it pass on filler drains.
  QuarantineProbe run_scenario(int restart_after_rounds) {
    ShardedSpgemmService::Config cfg;
    cfg.shards = 3;
    cfg.round_quantum = 8;
    cfg.seed = 0xbeefULL;
    cfg.restart_after_rounds = restart_after_rounds;
    const HashRing ring(cfg.shards, kVnodes, cfg.seed);
    const std::size_t victim = ring.owner(ring_hash(a_));
    cfg.shard_faults.trigger_ops = {2 * cfg.shards + victim};  // round 3
    ShardedSpgemmService group(plat_, pool_, cfg);

    // Round 1: learn A's plan. Round 2: a deadline miss on a cache hit
    // quarantines it (ledger entry expires at round 2 + TTL), then a clean
    // request re-identifies and re-caches it — so the round-2 snapshot
    // contains the plan again.
    group.submit(req(a_));
    group.drain();
    group.submit(req(a_, 1e-12));
    group.submit(req(a_));
    const GroupResult q = group.drain();
    EXPECT_EQ(q.group.deadline_missed, 1u);
    EXPECT_EQ(q.group.completed, 1u);

    // Rounds 3-4: kill the owner mid-batch; its requests fail over.
    group.submit(req(a_));
    group.submit(req(a_));
    const GroupResult killed = group.drain();
    EXPECT_EQ(killed.group.kills, 1u);
    EXPECT_EQ(killed.group.completed, 2u);

    // While the victim is down, A's traffic runs on the ring successor.
    for (int r = 5; r < 3 + restart_after_rounds; ++r) {
      group.submit(req(a_));
      const GroupResult filler = group.drain();
      EXPECT_EQ(filler.group.rounds, 1u);
      EXPECT_FALSE(group.alive(victim));
    }

    // Round 3 + restart_after_rounds: restart + rehydration, then one probe
    // request of A.
    group.submit(req(a_));
    const GroupResult back = group.drain();
    EXPECT_EQ(group.rounds(),
              static_cast<std::uint64_t>(3 + restart_after_rounds));
    EXPECT_EQ(back.group.restarts, 1u);
    EXPECT_EQ(back.group.completed, 1u);
    EXPECT_EQ(back.group.shard_reports[victim].assigned, 1u);
    expect_bit_identical(reference(a_), back.results[0].c, "probe");

    QuarantineProbe probe;
    probe.rehydrated = back.group.shard_reports[victim].rehydrated;
    const PlanCache::Stats& stats =
        group.shard_service(victim)->plan_cache().stats();
    probe.hits = stats.hits;
    probe.misses = stats.misses;
    return probe;
  }
};

TEST_F(ShardQuarantineTest, LiveQuarantineBlocksRehydratedPlan) {
  // The ledger entry (expires round 2 + TTL = 6) outlives a round-5
  // restart, so the plan is filtered out of rehydration and the probe must
  // re-identify.
  static_assert(ShardedSpgemmService::kQuarantineTtlRounds == 4);
  const QuarantineProbe probe = run_scenario(2);
  EXPECT_TRUE(probe.rehydrated);  // everything else IS restored
  EXPECT_EQ(probe.hits, 0);
  EXPECT_EQ(probe.misses, 1);
}

TEST_F(ShardQuarantineTest, ExpiredQuarantineAllowsRehydratedPlan) {
  // The entry expired after round 6, before a round-7 restart — the
  // re-learned plan is restored and the probe hits.
  static_assert(ShardedSpgemmService::kQuarantineTtlRounds == 4);
  const QuarantineProbe probe = run_scenario(4);
  EXPECT_TRUE(probe.rehydrated);
  EXPECT_EQ(probe.hits, 1);
  EXPECT_EQ(probe.misses, 0);
}

TEST_F(ShardGroupTest, SameSeedReplayIsByteIdenticalThroughKillsAndTuning) {
  auto build = [&] {
    ShardedSpgemmService::Config cfg;
    cfg.shards = 3;
    cfg.round_quantum = 2;  // small quantum: A's backlog spans into round 2
    cfg.seed = 0x1234ULL;
    cfg.restart_after_rounds = 2;
    // Kill A's owner at round 2, while it still holds deferred A requests.
    const HashRing ring(cfg.shards, kVnodes, cfg.seed);
    cfg.shard_faults.trigger_ops = {1 * cfg.shards +
                                    ring.owner(ring_hash(a_))};
    cfg.shard.tune.enabled = true;
    cfg.shard.fault_plan.gpu_kernel.rate = 0.15;
    cfg.shard.recovery.decorrelated_jitter = true;
    return ShardedSpgemmService(plat_, pool_, cfg);
  };
  const CsrMatrix* first[] = {&a_, &b_, &c_, &a_, &b_, &a_, &c_, &a_};
  const CsrMatrix* second[] = {&a_, &a_, &b_, &c_, &a_, &b_};

  auto run = [&](ShardedSpgemmService& group, std::string& reports_json,
                 std::vector<CsrMatrix>& outputs,
                 std::vector<RunReport>& reports) {
    for (const CsrMatrix* m : first) group.submit(req(*m));
    const GroupResult r1 = group.drain();
    for (const CsrMatrix* m : second) group.submit(req(*m));
    const GroupResult r2 = group.drain();
    reports_json = r1.group.to_json() + "\n" + r2.group.to_json() + "\n" +
                   group.tune_report().to_json();
    EXPECT_NO_THROW(parse_json(r1.group.to_json())) << r1.group.to_json();
    EXPECT_NO_THROW(parse_json(r2.group.to_json())) << r2.group.to_json();
    EXPECT_NO_THROW(parse_json(group.tune_report().to_json()))
        << group.tune_report().to_json();
    for (const GroupResult* r : {&r1, &r2}) {
      for (const RequestReport& rr : r->requests) {
        reports_json += "\n" + rr.to_json();
      }
      for (const RunResult& res : r->results) {
        outputs.push_back(res.c);
        reports.push_back(res.report);
      }
    }
    EXPECT_EQ(r1.group.kills + r2.group.kills, 1u);
    EXPECT_GE(r1.group.failovers, 1u);
    EXPECT_TRUE(r1.group.backoff_jitter);
  };

  ShardedSpgemmService g1 = build();
  ShardedSpgemmService g2 = build();
  std::string json1;
  std::string json2;
  std::vector<CsrMatrix> out1;
  std::vector<CsrMatrix> out2;
  std::vector<RunReport> rep1;
  std::vector<RunReport> rep2;
  run(g1, json1, out1, rep1);
  run(g2, json2, out2, rep2);

  EXPECT_EQ(json1, json2);  // byte-identical reports, kills included
  ASSERT_EQ(out1.size(), out2.size());
  for (std::size_t i = 0; i < out1.size(); ++i) {
    expect_bit_identical(out1[i], out2[i], "replay " + std::to_string(i));
  }
  // Tuned, faulted, failed-over — and still bit-identical to the serial
  // fault-free driver at the thresholds the service chose (tuning re-picks
  // thresholds; the H/L partition determines the summation order).
  const CsrMatrix* all[] = {&a_, &b_, &c_, &a_, &b_, &a_, &c_, &a_,
                            &a_, &a_, &b_, &c_, &a_, &b_};
  for (std::size_t i = 0; i < out1.size(); ++i) {
    HhCpuOptions opt;
    opt.threshold_a = rep1[i].threshold_a;
    opt.threshold_b = rep1[i].threshold_b;
    expect_bit_identical(run_hh_cpu(*all[i], *all[i], opt, plat_, pool_).c,
                         out1[i], "vs serial " + std::to_string(i));
  }
}

// --------------------------------------------------------------- snapshot

TEST_F(ShardGroupTest, SnapshotRoundTripsTunerAndPlanCacheState) {
  SpgemmService::Config cfg;
  cfg.tune.enabled = true;
  SpgemmService service(plat_, pool_, cfg);
  for (int round = 0; round < 3; ++round) {
    for (const CsrMatrix* m : {&a_, &b_, &a_}) {
      service.submit({m, nullptr, 0, 0, ""});
    }
    service.drain();
  }
  const ShardSnapshot snap = take_shard_snapshot(7, 42, service);
  EXPECT_EQ(snap.shard, 7u);
  EXPECT_EQ(snap.round, 42u);
  EXPECT_TRUE(snap.valid());
  ASSERT_GE(snap.plans.size(), 2u);

  SpgemmService fresh(plat_, pool_, cfg);
  restore_shard_snapshot(snap, {}, fresh);
  EXPECT_EQ(fresh.tune_report().to_json(), service.tune_report().to_json());
  EXPECT_EQ(fresh.plan_cache().size(), service.plan_cache().size());

  // Restoring with a quarantined key drops exactly that plan (and its tuner
  // entry — tested indirectly: the tune report can no longer match).
  SpgemmService filtered(plat_, pool_, cfg);
  restore_shard_snapshot(snap, {snap.plans[0].first}, filtered);
  EXPECT_EQ(filtered.plan_cache().size(), service.plan_cache().size() - 1);
  EXPECT_FALSE(filtered.plan_cache().lookup(snap.plans[0].first).has_value());

  // Any field flip breaks the chained checksum.
  ShardSnapshot tampered = snap;
  tampered.plans[0].second.version ^= 1;
  EXPECT_FALSE(tampered.valid());
  tampered = snap;
  tampered.tuner.rng_state[0] ^= 1;
  EXPECT_FALSE(tampered.valid());
  tampered = snap;
  tampered.round ^= 1;
  EXPECT_FALSE(tampered.valid());
  ASSERT_FALSE(snap.tuner.entries.empty());
  tampered = snap;
  tampered.tuner.entries[0].predicted_s[0] += 1e-9;
  EXPECT_FALSE(tampered.valid());
}

}  // namespace
}  // namespace hh
