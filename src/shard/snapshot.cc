#include "shard/snapshot.hpp"

#include <algorithm>
#include <cstring>

#include "fault/checksum.hpp"
#include "runtime/service.hpp"

namespace hh {
namespace {

// Field-by-field chaining via the shared helpers in fault/checksum.hpp (the
// workload flight recorder uses the same discipline).
constexpr auto mix = checksum_mix;
constexpr auto mix_i64 = checksum_mix_i64;
constexpr auto mix_f64 = checksum_mix_f64;

void mix_signature(std::uint64_t& h, const MatrixSignature& s) {
  mix_i64(h, s.rows);
  mix_i64(h, s.cols);
  mix_i64(h, s.nnz);
  mix_i64(h, s.alpha_milli);
  mix(h, s.degree_digest);
}

void mix_key(std::uint64_t& h, const PlanKey& k) {
  mix_signature(h, k.a);
  mix_signature(h, k.b);
}

}  // namespace

std::uint64_t ShardSnapshot::compute_checksum() const {
  std::uint64_t h = kFnv1aOffset;
  mix(h, static_cast<std::uint64_t>(shard));
  mix(h, round);
  mix(h, static_cast<std::uint64_t>(plans.size()));
  for (const auto& [key, plan] : plans) {
    mix_key(h, key);
    mix_i64(h, plan.threshold_a);
    mix_i64(h, plan.threshold_b);
    mix(h, plan.version);
    mix_f64(h, plan.measured_s);
  }
  mix(h, static_cast<std::uint64_t>(tuner.entries.size()));
  for (const TunerSnapshot::Entry& e : tuner.entries) {
    mix_key(h, e.key);
    mix(h, static_cast<std::uint64_t>(e.grid.size()));
    for (const offset_t t : e.grid) mix_i64(h, t);
    for (const double p : e.predicted_s) mix_f64(h, p);
    mix(h, static_cast<std::uint64_t>(e.explore_plan.size()));
    for (const offset_t t : e.explore_plan) mix_i64(h, t);
    mix(h, static_cast<std::uint64_t>(e.variants.size()));
    for (const TunerSnapshot::Variant& v : e.variants) {
      mix_i64(h, v.t);
      mix_i64(h, v.trials);
      mix_f64(h, v.best_s);
      mix_f64(h, v.predicted_s);
    }
    mix_i64(h, e.analytic_t);
    mix_i64(h, e.incumbent_t);
    mix(h, e.version);
    mix_i64(h, e.hits);
    mix_i64(h, e.explorations);
    mix_i64(h, e.promotions);
    mix(h, e.converged ? 1u : 0u);
  }
  for (const std::uint64_t w : tuner.rng_state) mix(h, w);
  mix_i64(h, tuner.decisions);
  mix_i64(h, tuner.explorations);
  mix_i64(h, tuner.measurements);
  mix_i64(h, tuner.promotions);
  return h;
}

ShardSnapshot take_shard_snapshot(std::size_t shard, std::uint64_t round,
                                  const SpgemmService& service) {
  ShardSnapshot snap;
  snap.shard = shard;
  snap.round = round;
  snap.plans = service.plan_cache().export_entries();
  snap.tuner = service.tuner().snapshot();
  snap.checksum = snap.compute_checksum();
  return snap;
}

void restore_shard_snapshot(const ShardSnapshot& snap,
                            const std::vector<PlanKey>& quarantined,
                            SpgemmService& service) {
  const auto under_quarantine = [&](const PlanKey& k) {
    return std::find(quarantined.begin(), quarantined.end(), k) !=
           quarantined.end();
  };

  std::vector<std::pair<PlanKey, CachedPlan>> plans;
  plans.reserve(snap.plans.size());
  for (const auto& entry : snap.plans) {
    if (!under_quarantine(entry.first)) plans.push_back(entry);
  }
  service.plan_cache().restore_entries(plans);

  TunerSnapshot tuner = snap.tuner;
  std::erase_if(tuner.entries, [&](const TunerSnapshot::Entry& e) {
    return under_quarantine(e.key);
  });
  service.tuner().restore(tuner);
}

}  // namespace hh
