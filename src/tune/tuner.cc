#include "tune/tuner.hpp"

#include <algorithm>
#include <numeric>

#include "util/check.hpp"

namespace hh {

ThresholdTuner::ThresholdTuner(TuneConfig config)
    : rng_(config.seed) {}

ThresholdTuner::Entry* ThresholdTuner::find(const PlanKey& key) {
  const auto it = index_.find(key);
  return it == index_.end() ? nullptr : &state_.entries[it->second];
}

const ThresholdTuner::Entry* ThresholdTuner::find(const PlanKey& key) const {
  const auto it = index_.find(key);
  return it == index_.end() ? nullptr : &state_.entries[it->second];
}

void ThresholdTuner::admit(const PlanKey& key, const ThresholdSweep& sweep) {
  if (has_entry(key)) return;
  HH_CHECK_MSG(!sweep.grid.empty(), "tuner admitted an empty sweep");
  Entry e;
  e.key = key;
  e.grid = sweep.grid;
  e.predicted_s = sweep.predicted_s;
  e.analytic_t = sweep.grid[sweep.best];
  e.incumbent_t = e.analytic_t;

  // Exploration plan: candidates predicted within kExploreSlack of the best,
  // cheapest-predicted first (stable: ties keep the smaller threshold),
  // excluding the incumbent itself, capped at kMaxVariants - 1. A clearly
  // dominated candidate never runs; a near-tie is exactly where the model's
  // ranking is least trustworthy and a measurement can flip the choice.
  const double cutoff =
      sweep.predicted_s[sweep.best] * (1.0 + TuneConfig::kExploreSlack);
  std::vector<std::size_t> order(e.grid.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t x, std::size_t y) {
                     return e.predicted_s[x] < e.predicted_s[y];
                   });
  for (const std::size_t i : order) {
    if (i == sweep.best) continue;
    if (e.predicted_s[i] > cutoff) break;  // sorted: all further are worse
    if (static_cast<int>(e.explore_plan.size()) >=
        TuneConfig::kMaxVariants - 1) {
      break;
    }
    e.explore_plan.push_back(e.grid[i]);
  }

  index_.emplace(key, state_.entries.size());
  state_.entries.push_back(std::move(e));
}

ThresholdTuner::Variant& ThresholdTuner::variant(Entry& e, offset_t t) {
  for (Variant& v : e.variants) {
    if (v.t == t) return v;
  }
  Variant v;
  v.t = t;
  for (std::size_t i = 0; i < e.grid.size(); ++i) {
    if (e.grid[i] == t) v.predicted_s = e.predicted_s[i];
  }
  e.variants.push_back(v);
  return e.variants.back();
}

int ThresholdTuner::trials_at(const Entry& e, offset_t t) const {
  for (const Variant& v : e.variants) {
    if (v.t == t) return v.trials;
  }
  return 0;
}

offset_t ThresholdTuner::next_explore_target(const Entry& e) const {
  for (const offset_t t : e.explore_plan) {
    if (trials_at(e, t) < TuneConfig::kMinTrials) return t;
  }
  return 0;
}

ThresholdTuner::Decision ThresholdTuner::decide(const PlanKey& key) {
  Entry* e = find(key);
  HH_CHECK_MSG(e != nullptr, "tuner decide() on an unadmitted key");
  e->hits++;
  state_.decisions++;
  Decision d{e->incumbent_t, false};
  if (e->converged || e->hits <= TuneConfig::kWarmupHits) return d;
  const offset_t target = next_explore_target(*e);
  if (target == 0) {
    // Every planned variant is measured: the incumbent is the measured best
    // of the neighborhood. Stop paying for exploration — and stop drawing
    // from the PRNG, so a converged key adds zero tuning overhead.
    e->converged = true;
    return d;
  }
  if (rng_.uniform() < TuneConfig::kEpsilon) {
    e->explorations++;
    state_.explorations++;
    d.t = target;
    d.explore = true;
  }
  return d;
}

std::optional<ThresholdTuner::PromotionEvent> ThresholdTuner::observe(
    const PlanKey& key, offset_t t, double measured_s) {
  Entry* e = find(key);
  HH_CHECK_MSG(e != nullptr, "tuner observe() on an unadmitted key");
  state_.measurements++;
  Variant& v = variant(*e, t);
  v.trials++;
  if (measured_s < v.best_s) v.best_s = measured_s;

  // Promotion: the best fully-measured variant, if it beats the incumbent's
  // own measured best by the margin. The incumbent must itself be measured —
  // never promote against an unmeasured baseline.
  const Variant* inc = nullptr;
  for (const Variant& c : e->variants) {
    if (c.t == e->incumbent_t) inc = &c;
  }
  if (inc == nullptr || inc->trials < 1) return std::nullopt;
  const Variant* best = inc;
  for (const Variant& c : e->variants) {
    if (c.trials >= TuneConfig::kMinTrials && c.best_s < best->best_s) {
      best = &c;
    }
  }
  if (best->t == e->incumbent_t ||
      best->best_s >= inc->best_s * (1.0 - TuneConfig::kPromoteMargin)) {
    return std::nullopt;
  }
  PromotionEvent ev;
  ev.from_t = e->incumbent_t;
  ev.to_t = best->t;
  ev.from_best_s = inc->best_s;
  ev.to_best_s = best->best_s;
  e->incumbent_t = best->t;
  e->version++;
  e->promotions++;
  state_.promotions++;
  ev.version = e->version;
  return ev;
}

offset_t ThresholdTuner::incumbent(const PlanKey& key) const {
  const Entry* e = find(key);
  return e == nullptr ? 0 : e->incumbent_t;
}

std::size_t ThresholdTuner::converged() const {
  std::size_t n = 0;
  for (const Entry& e : state_.entries) n += e.converged ? 1 : 0;
  return n;
}

TunerSnapshot ThresholdTuner::snapshot() const {
  TunerSnapshot snap = state_;
  snap.rng_state = rng_.state();
  return snap;
}

void ThresholdTuner::restore(const TunerSnapshot& snap) {
  state_ = snap;
  rng_.set_state(snap.rng_state);
  index_.clear();
  for (std::size_t i = 0; i < state_.entries.size(); ++i) {
    index_.emplace(state_.entries[i].key, i);
  }
}

}  // namespace hh
