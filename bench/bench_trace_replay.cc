// Flight-recorder → replay drill (src/obs/, docs/observability.md): a
// multi-wave power-law workload drains through an instrumented
// SpgemmService (flight recorder + SLO monitor + trace recorder attached),
// the recorded JSONL log round-trips through disk with its checksum chain
// verified, and the replay harness re-drives the log open-loop,
// closed-loop, across a 2-shard group, and with the batched wave executor
// enabled (asserting bit-identity against the wave-disabled pass).
//
// Hard pass/fail (exit 1 on any violation):
//  - the written log parses back and re-serialises byte-identically, and a
//    tampered copy is rejected with ParseError;
//  - zero lost requests in every replay, zero identity mismatches against
//    the serial run_hh_cpu reference, and zero deadline-outcome divergence
//    in the untuned open-loop replay (the fidelity pass);
//  - every pass's SLO accounting reconciles with its batch reports;
//  - a same-options re-replay produces a byte-identical ReplayReport.
//
//   HH_REPLAY_REQUESTS=96 HH_REPLAY_WAVES=4 HH_REPLAY_SEED=1833
//   HH_SCALE=0.05 ./bench_trace_replay        (defaults shown)
//
// Artifacts: the recorded log to HH_OBS_LOG (default replay_workload.jsonl),
// the Perfetto trace to HH_TRACE_OUT (default replay_trace.json), and the
// machine-readable record to HH_BENCH_OUT (default BENCH_trace_replay.json).
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "obs/recorder.hpp"
#include "obs/replay.hpp"
#include "obs/slo.hpp"
#include "trace/perfetto_export.hpp"
#include "util/prng.hpp"
#include "util/status.hpp"

namespace {

std::string env_str(const char* name, const char* fallback) {
  if (const char* env = std::getenv(name)) return env;
  return fallback;
}

void check_pass(hh::bench::Violations& violations,
                const hh::ReplayRunReport& r, const std::string& pass) {
  if (r.lost != 0) {
    violations.fail(pass + " lost " + std::to_string(r.lost) + " request(s)");
  }
  if (r.identity_mismatches != 0) {
    violations.fail(pass + " produced " +
                    std::to_string(r.identity_mismatches) +
                    " output(s) that differ from the serial reference");
  }
  if (!r.slo_reconciled) {
    violations.fail(pass +
                    " SLO accounting does not reconcile with the batch "
                    "reports");
  }
}

}  // namespace

int main() {
  using namespace hh;
  bench::print_header("flight recorder -> trace replay");

  bench::Violations violations{"REPLAY"};
  const double scale = default_bench_scale();
  const HeteroPlatform platform = make_scaled_platform(scale);
  ThreadPool pool(0);

  const std::size_t n =
      static_cast<std::size_t>(bench::env_double("HH_REPLAY_REQUESTS", 96));
  const std::size_t waves =
      static_cast<std::size_t>(bench::env_double("HH_REPLAY_WAVES", 4));
  const std::uint64_t seed =
      static_cast<std::uint64_t>(bench::env_double("HH_REPLAY_SEED", 1833));
  const std::string log_path =
      env_str("HH_OBS_LOG", "replay_workload.jsonl");
  const std::string trace_path = env_str("HH_TRACE_OUT", "replay_trace.json");
  const std::string bench_out =
      env_str("HH_BENCH_OUT", "BENCH_trace_replay.json");

  const char* names[] = {"wiki-Vote", "email-Enron", "ca-CondMat",
                         "p2p-Gnutella31"};
  std::vector<CsrMatrix> mats;
  mats.reserve(std::size(names));
  for (const char* name : names) {
    mats.push_back(load_or_make_dataset(dataset_spec(name), scale));
  }

  // ---- Record: drain `waves` PRNG-shaped waves through an instrumented
  // service. Every 7th request carries a tight deadline so the log (and the
  // replay's fidelity check) covers cancelled requests too.
  WorkloadRecorder recorder;
  SloMonitor record_slo({{"deadline-hit", 0.9, 128, 0, 1.0}});
  TraceRecorder trace;
  trace.enable();
  SpgemmService::Config cfg;
  cfg.recorder = &recorder;
  cfg.slo = &record_slo;
  cfg.trace = &trace;
  SpgemmService service(platform, pool, cfg);
  record_slo.bind_metrics(&service.metrics());
  record_slo.bind_trace(&trace);

  Xoshiro256 rng(seed);
  std::size_t submitted = 0;
  std::size_t recorded_misses = 0;
  for (std::size_t w = 0; w < waves; ++w) {
    // Wave sizes wobble around n/waves so the inter-arrival structure the
    // open-loop replay re-creates is not uniform.
    std::size_t quota = std::max<std::size_t>(1, n / waves);
    if (w + 1 == waves) quota = n - submitted;  // exact total
    for (std::size_t i = 0; i < quota && submitted < n; ++i, ++submitted) {
      SpgemmRequest req;
      req.a = &mats[rng.below(mats.size())];
      req.label = "r" + std::to_string(submitted);
      if (submitted % 7 == 3) req.deadline_s = 2e-4;
      service.submit(std::move(req));
    }
    const BatchResult b = service.drain();
    recorded_misses += b.batch.deadline_missed;
  }
  violations.check(recorder.total_appended() == n,
                   "the recorder missed requests");
  violations.check(record_slo.observations() == static_cast<std::int64_t>(n),
                   "the SLO monitor missed requests");

  // ---- Log round-trip through disk: write, re-read, verify the chain,
  // re-serialise byte-identically.
  violations.check(recorder.write(log_path),
                   "could not write the workload log");
  std::string log_text;
  {
    std::ifstream in(log_path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    log_text = ss.str();
  }
  WorkloadLog log;
  try {
    log = parse_workload_log(log_text);
  } catch (const ParseError& e) {
    violations.fail(std::string("recorded log failed to parse: ") + e.what());
    return 1;
  }
  violations.check(log.to_jsonl() == log_text,
                   "parse -> serialise is not the identity");
  violations.check(log.records.size() == n, "the parsed log lost records");

  // A tampered copy must be rejected: flip one digit of a payload field.
  {
    std::string tampered = log_text;
    const std::size_t pos = tampered.find("\"latency_s\":");
    bool detected = false;
    if (pos != std::string::npos) {
      const std::size_t digit = tampered.find_first_of("123456789", pos);
      if (digit != std::string::npos) {
        tampered[digit] = tampered[digit] == '9' ? '8' : '9';
        try {
          parse_workload_log(tampered);
        } catch (const ParseError&) {
          detected = true;
        }
      }
    }
    violations.check(detected, "a tampered record was not rejected");
  }

  // ---- Replay: open loop (fidelity pass), closed loop (throughput
  // ceiling), and a 2-shard group.
  ReplayHarness harness(platform, pool);
  for (const CsrMatrix& m : mats) harness.register_operand(&m);

  ReplayOptions opts;
  opts.seed = seed;
  opts.metrics_interval_s = 1e-5;
  opts.slo = {{"deadline-hit", 0.9, 128, 0, 1.0},
              {"latency-p95", 0.95, 128, 5e-3, 1.0}};

  const ReplayReport open = harness.replay(log, opts);
  check_pass(violations, open.untuned, "open-loop untuned");
  check_pass(violations, open.tuned, "open-loop tuned");
  // The untuned pass mirrors the recorded run's configuration, so every
  // deadline outcome must replay exactly as logged.
  if (open.untuned.outcome_divergence != 0) {
    violations.fail(std::to_string(open.untuned.outcome_divergence) +
                    " deadline outcome(s) diverged from the log in the "
                    "untuned open-loop replay");
  }
  violations.check(open.untuned.deadline_missed == recorded_misses,
                   "untuned replay misses != recorded misses");

  const ReplayReport open2 = harness.replay(log, opts);
  violations.check(open.to_json() == open2.to_json(),
                   "re-replay is not byte-identical (determinism broken)");
  violations.check(
      open.untuned.output_digest == open2.untuned.output_digest &&
          open.tuned.output_digest == open2.tuned.output_digest,
      "re-replay outputs are not bit-identical");

  ReplayOptions closed = opts;
  closed.open_loop = false;
  const ReplayReport closed_rep = harness.replay(log, closed);
  check_pass(violations, closed_rep.untuned, "closed-loop untuned");
  check_pass(violations, closed_rep.tuned, "closed-loop tuned");
  violations.check(
      closed_rep.untuned.makespan_s <= open.untuned.makespan_s + 1e-12,
      "closed loop slower than open loop");

  ReplayOptions sharded = opts;
  sharded.shards = 2;
  const ReplayReport shard_rep = harness.replay(log, sharded);
  check_pass(violations, shard_rep.untuned, "sharded untuned");
  check_pass(violations, shard_rep.tuned, "sharded tuned");

  // ---- Wave executor pass (docs/runtime.md): the same log re-driven with
  // the batched wave executor on. Zero lost requests, and the outputs must
  // be bit-identical to the wave-disabled open-loop pass — waves may only
  // move the schedule, never the bits.
  ReplayOptions waved = opts;
  waved.service.wave.enabled = true;
  const ReplayReport wave_rep = harness.replay(log, waved);
  check_pass(violations, wave_rep.untuned, "wave-enabled untuned");
  check_pass(violations, wave_rep.tuned, "wave-enabled tuned");
  violations.check(
      wave_rep.untuned.output_digest == open.untuned.output_digest,
      "wave-enabled outputs differ from the wave-disabled replay");

  // ---- Artifacts + summary.
  {
    std::ofstream out(trace_path, std::ios::binary);
    out << chrome_trace_json(trace);
    violations.check(static_cast<bool>(out),
                     "could not write the Perfetto trace");
  }
  {
    std::ofstream out(bench_out, std::ios::binary);
    out << "{\"bench\":\"trace_replay\",\"scale\":" << scale
        << ",\"requests\":" << n << ",\"waves\":" << waves
        << ",\"seed\":" << seed << ",\"recorded_misses\":" << recorded_misses
        << ",\"log_bytes\":" << log_text.size()
        << ",\"open\":" << open.to_json()
        << ",\"closed\":" << closed_rep.to_json()
        << ",\"sharded\":" << shard_rep.to_json()
        << ",\"wave\":" << wave_rep.to_json()
        << ",\"violations\":" << violations.count << "}\n";
    violations.check(static_cast<bool>(out),
                     "could not write the bench record");
  }

  std::printf("%s", open.to_string().c_str());
  std::printf("closed loop: makespan %.3f ms (open %.3f ms)\n",
              closed_rep.untuned.makespan_s * 1e3,
              open.untuned.makespan_s * 1e3);
  std::printf("sharded (2): makespan %.3f ms, %zu lost\n",
              shard_rep.untuned.makespan_s * 1e3, shard_rep.untuned.lost);
  std::printf("wave-enabled: makespan %.3f ms, %zu lost, outputs identical "
              "to the wave-disabled replay\n",
              wave_rep.untuned.makespan_s * 1e3, wave_rep.untuned.lost);
  std::printf("recorded %zu requests over %zu waves (%zu deadline misses), "
              "log %zu bytes -> %s\n",
              n, waves, recorded_misses, log_text.size(), log_path.c_str());

  if (violations.count > 0) {
    std::fprintf(stderr, "\n%d REPLAY VIOLATION(S)\n", violations.count);
    return 1;
  }
  std::printf("\nall replay invariants held\n");
  return 0;
}
