// ThresholdTuner: online explore/exploit refinement of cached thresholds.
//
// The paper picks the H/L threshold t per matrix with an offline empirical
// sweep (§III-A, Fig. 8) and names online identification as future work
// (§VI). The service's plan cache already reuses the *analytic* pick for hot
// signature pairs; this tuner upgrades each cached plan into a versioned,
// measured entry that converges from the analytic guess toward the
// empirical optimum without ever paying the full offline sweep:
//
//  - on admission (the signature pair's first request) the tuner keeps the
//    whole analytic sweep — grid plus predicted totals — and plans a
//    small exploration list: the candidates whose predicted total is within
//    `kExploreSlack` of the predicted best, cheapest-predicted first, capped
//    at `kMaxVariants`. Only near-ties are worth measuring; clearly-bad
//    candidates are never run.
//  - on a tunable cache hit past the first `kWarmupHits` the tuner either
//    serves the incumbent (exploit) or, with probability `kEpsilon`, serves
//    the next unmeasured explore candidate. Every candidate computes the
//    same bit-exact product — only the simulated schedule differs — so
//    exploration is always safe.
//  - each clean completed request reports its measured total back; once a
//    non-incumbent variant has `kMinTrials` measurements and beats the
//    incumbent's best by `kPromoteMargin`, it is promoted: the cached plan
//    is overwritten with the better threshold and its version is bumped.
//  - when every planned variant is measured the entry converges and the
//    tuner serves the best-measured threshold with zero further overhead.
//
// Determinism/replay: the epsilon draws come from one Xoshiro256 stream
// seeded by TuneConfig::seed and consumed only on eligible hits in drain
// order, and measured totals are simulated-clock arithmetic — so the same
// seed and submission sequence replay to bit-identical decisions, outputs
// and reports.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/threshold.hpp"
#include "runtime/plan_cache.hpp"
#include "util/prng.hpp"

namespace hh {

struct TuneConfig {
  bool enabled = false;     // default off: the service behaves exactly as
                            // before this subsystem existed
  std::uint64_t seed = 0x7a11ULL;  // epsilon-greedy PRNG stream
  // The policy's fixed numbers (docs/tuning.md).
  static constexpr double kEpsilon = 0.5;  // explore chance per eligible hit
  static constexpr int kWarmupHits = 1;    // exploit-only hits per key first
  // Measurements per variant before comparison. > 1 matters: a variant's
  // measured total depends on where in the pipeline's steady rhythm its
  // request lands, so one trial can catch a congested beat; the min over a
  // few trials recovers the variant's true cost.
  static constexpr int kMinTrials = 3;
  static constexpr double kPromoteMargin = 0.02;  // relative win to promote
  // Incumbent + at most this-1 explored candidates per key.
  static constexpr int kMaxVariants = 4;
  // A candidate is explored when its predicted total is within
  // (1 + kExploreSlack) of the best.
  static constexpr double kExploreSlack = 0.25;
};

/// The tuner's complete state: the live tuner runs on it, a shard snapshot
/// (src/shard/snapshot.hpp) copies it, and TuneReport renders it. A
/// snapshot also carries the epsilon-greedy PRNG state: a restored tuner
/// continues the exact decision stream the snapshotted one would have
/// produced, which is what makes same-seed group replay byte-identical
/// across a kill/restart. Entries may be filtered before restore (e.g.
/// dropping keys under plan-cache quarantine).
struct TunerSnapshot {
  /// One measured threshold variant of a tuned signature pair.
  struct Variant {
    offset_t t = 0;
    int trials = 0;  // completed measurements
    // Best measured total (min over trials).
    double best_s = std::numeric_limits<double>::infinity();
    double predicted_s = 0;  // the analytic sweep's prediction for t
  };
  /// One tuned signature pair.
  struct Entry {
    PlanKey key;
    std::vector<offset_t> grid;
    std::vector<double> predicted_s;     // the analytic sweep, frozen at admit
    std::vector<offset_t> explore_plan;  // predicted-ascending near-ties
    std::vector<Variant> variants;       // first-measured order
    offset_t analytic_t = 0;    // the analytic pick the entry started from
    offset_t incumbent_t = 0;   // current choice served on cache hits
    std::uint32_t version = 0;  // bumped on every promotion
    int hits = 0;               // tunable cache hits seen
    int explorations = 0;
    int promotions = 0;
    bool converged = false;  // every planned variant measured; exploring ended
  };
  std::vector<Entry> entries;  // first-seen order
  std::array<std::uint64_t, 4> rng_state{};  // filled by snapshot() only
  std::int64_t decisions = 0;     // tunable cache hits routed to the tuner
  std::int64_t explorations = 0;  // requests served a non-incumbent variant
  std::int64_t measurements = 0;  // clean totals ingested
  std::int64_t promotions = 0;
};

class ThresholdTuner {
 public:
  struct Decision {
    offset_t t = 0;        // threshold to serve this request
    bool explore = false;  // true when t is a non-incumbent variant
  };

  struct PromotionEvent {
    offset_t from_t = 0;
    offset_t to_t = 0;
    double from_best_s = 0;
    double to_best_s = 0;
    std::uint32_t version = 0;  // the entry's version after the promotion
  };

  explicit ThresholdTuner(TuneConfig config = {});

  /// Create the entry for a signature pair from its analytic sweep (no-op
  /// if present). The service sweeps and admits a pair on its first tunable
  /// request only: a cache miss, or a hit against a plan cached before
  /// tuning was enabled.
  void admit(const PlanKey& key, const ThresholdSweep& sweep);

  bool has_entry(const PlanKey& key) const {
    return index_.find(key) != index_.end();
  }

  /// Explore-or-exploit for a tunable cache hit. The entry must exist.
  Decision decide(const PlanKey& key);

  /// Ingest a clean measured total for the variant served at threshold t.
  /// Returns the promotion event when this measurement changed the
  /// incumbent.
  std::optional<PromotionEvent> observe(const PlanKey& key, offset_t t,
                                        double measured_s);

  /// Current incumbent threshold for the key (0 when absent).
  offset_t incumbent(const PlanKey& key) const;

  std::size_t entries() const { return state_.entries.size(); }
  std::size_t converged() const;
  std::int64_t measurements() const { return state_.measurements; }
  std::int64_t promotions() const { return state_.promotions; }

  /// Copy-out / copy-in of the state, PRNG included.
  TunerSnapshot snapshot() const;
  void restore(const TunerSnapshot& snap);

 private:
  using Entry = TunerSnapshot::Entry;
  using Variant = TunerSnapshot::Variant;

  Entry* find(const PlanKey& key);
  const Entry* find(const PlanKey& key) const;
  Variant& variant(Entry& e, offset_t t);
  int trials_at(const Entry& e, offset_t t) const;
  /// First explore_plan threshold still short of kMinTrials; 0 when none.
  offset_t next_explore_target(const Entry& e) const;

  Xoshiro256 rng_;
  TunerSnapshot state_;  // rng_state unused: rng_ is the live stream
  std::unordered_map<PlanKey, std::size_t, PlanKeyHash> index_;
};

}  // namespace hh
