// Chaos drill for the fault-tolerant shard group (src/shard/,
// docs/robustness.md): a large tuned batch drains across a
// ShardedSpgemmService while device faults fire, one shard is killed
// mid-batch by the deterministic kShard schedule, its in-flight requests
// fail over to the ring successor, and the shard later restarts and
// rehydrates from its checksummed snapshot.
//
// Hard pass/fail (exit 1 on any violation):
//  - zero lost requests: every submitted request completes;
//  - every output bit-identical to the fault-free serial run_hh_cpu
//    reference (tuning re-picks thresholds but never changes bits);
//  - the kill, failover, restart and rehydration actually happened;
//  - a same-seed replay reproduces byte-identical group reports,
//    per-request reports and merged TuneReport JSON, and bit-identical
//    outputs.
//
//   HH_SHARD_REQUESTS=256 HH_SHARD_COUNT=4 HH_SHARD_SEED=24397
//   HH_SCALE=0.05 ./bench_shard_chaos          (defaults shown)
//
// Writes the machine-readable record to HH_BENCH_OUT (default
// BENCH_shard_chaos.json).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "bench_common.hpp"
#include "obs/replay.hpp"
#include "shard/sharded_service.hpp"
#include "util/format.hpp"

int main() {
  using namespace hh;
  bench::print_header("shard chaos: kill, failover, restart, rehydrate");

  bench::Violations violations{"CHAOS"};
  const double scale = default_bench_scale();
  const HeteroPlatform platform = make_scaled_platform(scale);
  ThreadPool pool(0);

  const std::size_t n =
      static_cast<std::size_t>(bench::env_double("HH_SHARD_REQUESTS", 256));
  const std::size_t shard_count =
      static_cast<std::size_t>(bench::env_double("HH_SHARD_COUNT", 4));
  const std::uint64_t seed =
      static_cast<std::uint64_t>(bench::env_double("HH_SHARD_SEED", 24397));

  const char* names[] = {"wiki-Vote", "email-Enron", "ca-CondMat",
                         "p2p-Gnutella31"};
  std::vector<CsrMatrix> mats;
  mats.reserve(std::size(names));
  for (const char* name : names) {
    mats.push_back(load_or_make_dataset(dataset_spec(name), scale));
  }

  ShardedSpgemmService::Config cfg;
  cfg.shards = shard_count;
  cfg.seed = seed;
  // Size rounds so the batch spans well past the kill (round 3) and the
  // restart (round 6) whatever HH_SHARD_REQUESTS says.
  cfg.round_quantum =
      std::max<std::size_t>(1, n / (std::max<std::size_t>(shard_count, 1) * 8));
  cfg.restart_after_rounds = 3;
  cfg.shard.tune.enabled = true;
  cfg.shard.fault_plan.gpu_kernel.rate = 0.15;
  cfg.shard.fault_plan.h2d.rate = 0.08;
  cfg.shard.recovery.decorrelated_jitter = true;
  // Kill the shard that owns the first dataset's keys, in round 3 — after
  // that round's submissions, so its in-flight requests must fail over.
  {
    const HashRing ring(cfg.shards, ShardedSpgemmService::kVirtualNodes,
                         cfg.seed);
    const MatrixSignature sig = matrix_signature(mats[0]);
    std::uint64_t st =
        static_cast<std::uint64_t>(PlanKeyHash{}(PlanKey{sig, sig}));
    cfg.shard_faults.trigger_ops = {2 * cfg.shards +
                                    ring.owner(splitmix64(st))};
  }

  // One drain of the batch. Each run's outputs stay in its GroupResult,
  // the one copy of them.
  const auto run = [&](std::string& reports_json) -> GroupResult {
    ShardedSpgemmService group(platform, pool, cfg);
    for (std::size_t i = 0; i < n; ++i) {
      SpgemmRequest req;
      req.a = &mats[i % mats.size()];
      req.label = std::string(names[i % mats.size()]) + "#" +
                  std::to_string(i / mats.size());
      group.submit(std::move(req));
    }
    GroupResult out = group.drain();
    reports_json = out.group.to_json() + "\n" + group.tune_report().to_json();
    for (const RequestReport& rr : out.requests) {
      reports_json += "\n" + rr.to_json();
    }
    const auto count = [&](const char* name) {
      return group.metrics().counter(name).value();
    };
    violations.check(count("shard.kills") >= 1,
                     "no shard was killed (kill schedule never fired)");
    violations.check(
        count("shard.failovers") >= 1,
        "the killed shard had nothing in flight (no failover exercised)");
    violations.check(count("shard.restarts") >= 1,
                     "the killed shard never restarted");
    violations.check(count("shard.rehydrations") >= 1,
                     "the restarted shard did not rehydrate its snapshot");
    for (std::size_t s = 0; s < group.shards(); ++s) {
      violations.check(group.alive(s),
                       "a shard is still dead after the drain");
    }
    return out;
  };

  std::string json1;
  std::string json2;
  const GroupResult first = run(json1);
  const GroupBatchReport& g = first.group;
  const std::vector<RunResult>& out1 = first.results;
  // The replay's outputs are compared with run 1's as soon as it returns
  // and then dropped, so at most two runs' outputs are alive at once; the
  // verdicts are reported below in the same order as every other check.
  std::size_t replay_size = 0;
  std::size_t replay_diff = 0;
  {
    const GroupResult replay = run(json2);
    replay_size = replay.results.size();
    while (replay_diff < out1.size() && replay_diff < replay_size &&
           bit_identical(out1[replay_diff].c, replay.results[replay_diff].c)) {
      ++replay_diff;
    }
  }

  // Zero loss, bit-identity against the fault-free serial driver at the
  // thresholds the service actually chose (tuning re-picks thresholds; the
  // bits are a function of the H/L partition, so the reference must use the
  // same one).
  violations.check(
      g.requests == n && g.completed == n && g.deadline_missed == 0,
      "lost or cancelled requests (completed != submitted)");
  std::map<std::tuple<std::size_t, offset_t, offset_t>, CsrMatrix> refs;
  for (std::size_t i = 0; i < out1.size(); ++i) {
    const std::size_t m = i % mats.size();
    const RunReport& rep = out1[i].report;
    const auto key = std::make_tuple(m, rep.threshold_a, rep.threshold_b);
    auto it = refs.find(key);
    if (it == refs.end()) {
      HhCpuOptions opt;
      opt.threshold_a = rep.threshold_a;
      opt.threshold_b = rep.threshold_b;
      it = refs.emplace(key, run_hh_cpu(mats[m], mats[m], opt, platform, pool)
                                 .c)
               .first;
    }
    if (!bit_identical(it->second, out1[i].c)) {
      violations.fail("request " + std::to_string(i) +
                      " differs from the serial reference");
      break;
    }
  }

  // Same-seed replay: byte-identical reports, bit-identical outputs.
  violations.check(
      json1 == json2,
      "replay reports differ (group/request/tune JSON not byte-identical)");
  violations.check(out1.size() == replay_size,
                   "replay produced a different batch size");
  if (replay_diff < std::min(out1.size(), replay_size)) {
    violations.fail("replay output " + std::to_string(replay_diff) +
                    " differs");
  }

  std::printf("%s\n", g.to_string().c_str());
  std::printf("%zu requests over %zu shards: %zu failovers, %zu kills, "
              "%zu restarts, %zu rounds, makespan %.3f ms\n",
              g.requests, g.shards, g.failovers, g.kills, g.restarts,
              g.rounds, g.makespan_s * 1e3);

  std::ostringstream record;
  record << "{\"scale\":" << fmt_num(scale) << ",\"requests\":" << n
         << ",\"shards\":" << shard_count << ",\"seed\":" << seed
         << ",\"violations\":" << violations.count
         << ",\"group\":" << g.to_json()
         << "}";
  const char* bench_env = std::getenv("HH_BENCH_OUT");
  const std::string bench_path =
      bench_env != nullptr ? bench_env : "BENCH_shard_chaos.json";
  if (!bench_path.empty()) {
    if (std::FILE* f = std::fopen(bench_path.c_str(), "w")) {
      std::fprintf(f, "%s\n", record.str().c_str());
      std::fclose(f);
      std::printf("wrote %s\n", bench_path.c_str());
    }
  }

  if (violations.count > 0) {
    std::fprintf(stderr, "%d chaos violation(s)\n", violations.count);
    return 1;
  }
  std::printf("chaos drill clean: zero loss, bit-identical outputs, "
              "byte-identical replay\n");
  return 0;
}
