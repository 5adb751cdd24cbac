#include "tune/tuner.hpp"

#include <algorithm>
#include <numeric>

#include "runtime/signature.hpp"
#include "util/check.hpp"

namespace hh {

ThresholdTuner::ThresholdTuner(TuneConfig config)
    : config_(config), rng_(config.seed) {
  HH_CHECK_MSG(config_.epsilon >= 0 && config_.epsilon <= 1,
               "tune epsilon must be in [0, 1]");
  HH_CHECK_MSG(config_.min_trials >= 1, "tune min_trials must be >= 1");
  HH_CHECK_MSG(config_.explore_slack >= 0, "tune explore_slack must be >= 0");
  HH_CHECK_MSG(config_.promote_margin >= 0,
               "tune promote_margin must be >= 0");
}

ThresholdTuner::Entry* ThresholdTuner::find(const PlanKey& key) {
  const auto it = index_.find(key);
  return it == index_.end() ? nullptr : &entries_[it->second];
}

const ThresholdTuner::Entry* ThresholdTuner::find(const PlanKey& key) const {
  const auto it = index_.find(key);
  return it == index_.end() ? nullptr : &entries_[it->second];
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

  // Exploration plan: candidates predicted within explore_slack of the best,
  // cheapest-predicted first (stable: ties keep the smaller threshold),
  // excluding the incumbent itself, capped at kMaxVariants - 1. A clearly
  // dominated candidate never runs; a near-tie is exactly where the model's
  // ranking is least trustworthy and a measurement can flip the choice.
  const double cutoff =
      sweep.predicted_s[sweep.best] * (1.0 + config_.explore_slack);
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

  index_.emplace(key, entries_.size());
  entries_.push_back(std::move(e));
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
    if (trials_at(e, t) < config_.min_trials) return t;
  }
  return 0;
}

ThresholdTuner::Decision ThresholdTuner::decide(const PlanKey& key) {
  Entry* e = find(key);
  HH_CHECK_MSG(e != nullptr, "tuner decide() on an unadmitted key");
  e->hits++;
  decisions_++;
  Decision d{e->incumbent_t, false};
  if (e->converged || e->hits <= config_.warmup_hits) return d;
  const offset_t target = next_explore_target(*e);
  if (target == 0) {
    // Every planned variant is measured: the incumbent is the measured best
    // of the neighborhood. Stop paying for exploration — and stop drawing
    // from the PRNG, so a converged key adds zero tuning overhead.
    e->converged = true;
    return d;
  }
  if (rng_.uniform() < config_.epsilon) {
    e->explorations++;
    explorations_++;
    d.t = target;
    d.explore = true;
  }
  return d;
}

std::optional<ThresholdTuner::PromotionEvent> ThresholdTuner::observe(
    const PlanKey& key, offset_t t, double measured_s) {
  Entry* e = find(key);
  HH_CHECK_MSG(e != nullptr, "tuner observe() on an unadmitted key");
  measurements_++;
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
    if (c.trials >= config_.min_trials && c.best_s < best->best_s) best = &c;
  }
  if (best->t == e->incumbent_t ||
      best->best_s >= inc->best_s * (1.0 - config_.promote_margin)) {
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
  promotions_++;
  ev.version = e->version;
  return ev;
}

offset_t ThresholdTuner::incumbent(const PlanKey& key) const {
  const Entry* e = find(key);
  return e == nullptr ? 0 : e->incumbent_t;
}

std::size_t ThresholdTuner::converged() const {
  std::size_t n = 0;
  for (const Entry& e : entries_) n += e.converged ? 1 : 0;
  return n;
}

TunerSnapshot ThresholdTuner::snapshot() const {
  TunerSnapshot snap;
  snap.entries.reserve(entries_.size());
  for (const Entry& e : entries_) {
    TunerSnapshot::Entry se;
    se.key = e.key;
    se.grid = e.grid;
    se.predicted_s = e.predicted_s;
    se.explore_plan = e.explore_plan;
    se.variants.reserve(e.variants.size());
    for (const Variant& v : e.variants) {
      se.variants.push_back({v.t, v.trials, v.best_s, v.predicted_s});
    }
    se.analytic_t = e.analytic_t;
    se.incumbent_t = e.incumbent_t;
    se.version = e.version;
    se.hits = e.hits;
    se.explorations = e.explorations;
    se.promotions = e.promotions;
    se.converged = e.converged;
    snap.entries.push_back(std::move(se));
  }
  snap.rng_state = rng_.state();
  snap.decisions = decisions_;
  snap.explorations = explorations_;
  snap.measurements = measurements_;
  snap.promotions = promotions_;
  return snap;
}

void ThresholdTuner::restore(const TunerSnapshot& snap) {
  entries_.clear();
  index_.clear();
  entries_.reserve(snap.entries.size());
  for (const TunerSnapshot::Entry& se : snap.entries) {
    Entry e;
    e.key = se.key;
    e.grid = se.grid;
    e.predicted_s = se.predicted_s;
    e.explore_plan = se.explore_plan;
    e.variants.reserve(se.variants.size());
    for (const TunerSnapshot::Variant& v : se.variants) {
      Variant nv;
      nv.t = v.t;
      nv.trials = v.trials;
      nv.best_s = v.best_s;
      nv.predicted_s = v.predicted_s;
      e.variants.push_back(nv);
    }
    e.analytic_t = se.analytic_t;
    e.incumbent_t = se.incumbent_t;
    e.version = se.version;
    e.hits = se.hits;
    e.explorations = se.explorations;
    e.promotions = se.promotions;
    e.converged = se.converged;
    index_.emplace(e.key, entries_.size());
    entries_.push_back(std::move(e));
  }
  rng_.set_state(snap.rng_state);
  decisions_ = snap.decisions;
  explorations_ = snap.explorations;
  measurements_ = snap.measurements;
  promotions_ = snap.promotions;
}

TuneReport ThresholdTuner::report() const {
  TuneReport r;
  r.decisions = decisions_;
  r.explorations = explorations_;
  r.measurements = measurements_;
  r.promotions = promotions_;
  r.entries_converged = converged();
  r.entries.reserve(entries_.size());
  for (const Entry& e : entries_) {
    TuneEntryReport er;
    er.key = to_string(e.key.a) + " x " + to_string(e.key.b);
    er.analytic_t = e.analytic_t;
    er.incumbent_t = e.incumbent_t;
    er.version = e.version;
    er.hits = e.hits;
    er.explorations = e.explorations;
    er.promotions = e.promotions;
    er.converged = e.converged;
    er.variants.reserve(e.variants.size());
    for (const Variant& v : e.variants) {
      er.variants.push_back({v.t, v.trials,
                             v.trials > 0 ? v.best_s : 0.0, v.predicted_s});
    }
    r.entries.push_back(std::move(er));
  }
  return r;
}

}  // namespace hh
