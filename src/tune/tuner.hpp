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
//    whole analytic sweep — grid plus corrected predictions — and plans a
//    small exploration list: the candidates whose predicted total is within
//    `explore_slack` of the predicted best, cheapest-predicted first, capped
//    at `kMaxVariants`. Only near-ties are worth measuring; clearly-bad
//    candidates are never run.
//  - on a tunable cache hit the tuner either serves the incumbent
//    (exploit) or, with probability epsilon, serves the next unmeasured
//    explore candidate. Every candidate computes the same bit-exact product
//    — only the simulated schedule differs — so exploration is always safe.
//  - each clean completed request reports its measured total back; once a
//    non-incumbent variant has `min_trials` measurements and beats the
//    incumbent's best by `promote_margin`, it is promoted: the cached plan
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
#include "tune/calibration.hpp"
#include "tune/report.hpp"
#include "util/prng.hpp"

namespace hh {

struct TuneConfig {
  bool enabled = false;     // default off: the service behaves exactly as
                            // before this subsystem existed
  std::uint64_t seed = 0x7a11ULL;  // epsilon-greedy PRNG stream
  double epsilon = 0.5;     // explore probability per eligible cache hit
  int warmup_hits = 1;      // exploit-only hits before exploring a key
  int min_trials = 3;       // measurements per variant before comparison.
                            // > 1 matters: a variant's measured total
                            // depends on where in the pipeline's steady
                            // rhythm its request lands, so one trial can
                            // catch a congested beat; the min over a few
                            // trials recovers the variant's true cost
  double promote_margin = 0.02;  // relative win required to promote
  // Incumbent + at most this-1 explored candidates per key.
  static constexpr int kMaxVariants = 4;
  double explore_slack = 0.25;   // candidate eligible when its corrected
                                 // predicted total <= (1+slack) * best
  CalibrationConfig calibration;
};

/// Complete copyable tuner state, for shard snapshot/rehydration
/// (src/shard/snapshot.hpp). Includes the epsilon-greedy PRNG state: a
/// restored tuner continues the exact decision stream the snapshotted one
/// would have produced, which is what makes same-seed group replay
/// byte-identical across a kill/restart. Entries may be filtered before
/// restore (e.g. dropping keys under plan-cache quarantine).
struct TunerSnapshot {
  struct Variant {
    offset_t t = 0;
    int trials = 0;
    double best_s = 0;
    double predicted_s = 0;
  };
  struct Entry {
    PlanKey key;
    std::vector<offset_t> grid;
    std::vector<double> predicted_s;
    std::vector<offset_t> explore_plan;
    std::vector<Variant> variants;
    offset_t analytic_t = 0;
    offset_t incumbent_t = 0;
    std::uint32_t version = 0;
    int hits = 0;
    int explorations = 0;
    int promotions = 0;
    bool converged = false;
  };
  std::vector<Entry> entries;  // first-seen order
  std::array<std::uint64_t, 4> rng_state{};
  std::int64_t decisions = 0;
  std::int64_t explorations = 0;
  std::int64_t measurements = 0;
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

  const TuneConfig& config() const { return config_; }

  /// Create the entry for a signature pair from its analytic sweep (no-op
  /// if present). Called on the pair's cache miss, where the sweep was just
  /// paid for anyway; also called lazily on a hit against a plan cached
  /// before tuning was enabled.
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

  std::size_t entries() const { return entries_.size(); }
  std::size_t converged() const;
  std::int64_t decisions() const { return decisions_; }
  std::int64_t explorations() const { return explorations_; }
  std::int64_t measurements() const { return measurements_; }
  std::int64_t promotions() const { return promotions_; }

  /// Tuner-side report (entries in first-seen order). The service fills in
  /// `enabled`, `drift_events` and the calibration section.
  TuneReport report() const;

  /// Copy-out / copy-in of the mutable state, PRNG included (config is NOT
  /// part of the snapshot — the restoring tuner keeps its own).
  TunerSnapshot snapshot() const;
  void restore(const TunerSnapshot& snap);

 private:
  struct Variant {
    offset_t t = 0;
    int trials = 0;
    double best_s = std::numeric_limits<double>::infinity();
    double predicted_s = 0;
  };

  struct Entry {
    PlanKey key;
    std::vector<offset_t> grid;
    std::vector<double> predicted_s;     // corrected, frozen at admit time
    std::vector<offset_t> explore_plan;  // predicted-ascending near-ties
    std::vector<Variant> variants;       // first-measured order
    offset_t analytic_t = 0;
    offset_t incumbent_t = 0;
    std::uint32_t version = 0;
    int hits = 0;
    int explorations = 0;
    int promotions = 0;
    bool converged = false;
  };

  Entry* find(const PlanKey& key);
  const Entry* find(const PlanKey& key) const;
  Variant& variant(Entry& e, offset_t t);
  int trials_at(const Entry& e, offset_t t) const;
  /// First explore_plan threshold still short of min_trials; 0 when none.
  offset_t next_explore_target(const Entry& e) const;

  TuneConfig config_;
  Xoshiro256 rng_;
  std::vector<Entry> entries_;  // stable first-seen order for reporting
  std::unordered_map<PlanKey, std::size_t, PlanKeyHash> index_;
  std::int64_t decisions_ = 0;
  std::int64_t explorations_ = 0;
  std::int64_t measurements_ = 0;
  std::int64_t promotions_ = 0;
};

}  // namespace hh
