#include "runtime/service.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <mutex>
#include <span>
#include <sstream>
#include <utility>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "core/hh_stages.hpp"
#include "core/partition_plan.hpp"
#include "core/threshold.hpp"
#include "fault/checksum.hpp"
#include "obs/recorder.hpp"
#include "obs/slo.hpp"
#include "trace/flame.hpp"
#include "util/check.hpp"
#include "util/format.hpp"
#include "util/stats.hpp"

namespace hh {
namespace {

// A GPU "join time" no request can ever reach: passing it as the queue's
// gpu_start makes cost_phase3 assign every unit to the CPU end — the
// CPU-only re-plan of a degraded request.
constexpr double kGpuNeverJoins = 1e300;

// Span names of one retried operation's healthy, failed and corrupted
// attempts.
struct StageNames {
  const char* ok;
  const char* fault;
  const char* corrupt;
};
constexpr StageNames kUploadStage{"h2d-input", "h2d-input-fault",
                                  "h2d-input-corrupt"};
constexpr StageNames kPhase2GpuStage{"phase2-gpu", "phase2-gpu-abort",
                                     "phase2-gpu-abort"};
constexpr StageNames kPhase3GpuStage{"phase3-gpu", "phase3-gpu-abort",
                                     "phase3-gpu-abort"};
constexpr StageNames kD2hStage{"d2h-tuples", "d2h-tuples-fault",
                               "d2h-tuples-corrupt"};

// A request's distinct device operands: B is nullptr for a self product.
std::array<const CsrMatrix*, 2> operands_of(const SpgemmRequest& q) {
  return {q.a, q.b != nullptr && q.b != q.a ? q.b : nullptr};
}

// A drain's event log: the caller's recorder when attached and enabled,
// else `own`, switched on.
TraceRecorder& event_log(TraceRecorder* user, TraceRecorder& own) {
  if (user != nullptr && user->enabled()) return *user;
  own.enable();
  return own;
}

// A drain hands its caller every request's C (~380 MiB for perfbench's
// 64-request drains), and a caller in a loop frees them before the next
// drain. glibc gives a freed heap top back to the OS once it passes a trim
// threshold that moves with the sizes of earlier freed blocks, so whether
// the next drain reused those pages or faulted all of them in again hung on
// whatever else last landed at the top of the heap: at one seed, perfbench's
// service_faulted drains took either ~0 or ~87k minor faults (~98 or
// ~145 ms on a 4-core host with a 2-thread pool), switching between runs
// and within one. Fixing both thresholds
// (mmap at its dynamic ceiling, trim out of reach) keeps every block under
// 32 MiB in the heap, so each drain reuses the freed outputs of the last.
// Process-wide, set once by the first service.
void keep_freed_heap() {
#if defined(__GLIBC__)
  static std::once_flag once;
  std::call_once(once, [] {
    mallopt(M_MMAP_THRESHOLD, 32 << 20);
    mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());
  });
#endif
}

}  // namespace

void FaultRecoveryStats::accumulate(const FaultRecoveryStats& o) {
  gpu_aborts += o.gpu_aborts;
  h2d_faults += o.h2d_faults;
  d2h_faults += o.d2h_faults;
  corruptions += o.corruptions;
  cpu_stalls += o.cpu_stalls;
  retries += o.retries;
  backoff_s += o.backoff_s;
}

std::string FaultRecoveryStats::to_json() const {
  std::ostringstream os;
  os << "{\"gpu_aborts\":" << gpu_aborts << ",\"h2d_faults\":" << h2d_faults
     << ",\"d2h_faults\":" << d2h_faults
     << ",\"corruptions\":" << corruptions
     << ",\"cpu_stalls\":" << cpu_stalls << ",\"retries\":" << retries
     << ",\"backoff_s\":" << fmt_num(backoff_s) << "}";
  return os.str();
}

std::string FaultRecoveryStats::to_string() const {
  std::ostringstream os;
  os << "gpu " << gpu_aborts << ", h2d " << h2d_faults << ", d2h "
     << d2h_faults << " (" << corruptions << " corrupt), cpu stalls "
     << cpu_stalls << "; retries " << retries << ", backoff "
     << fmt_ms(backoff_s);
  return os.str();
}

std::string RequestReport::to_string() const {
  std::ostringstream os;
  os << "request #" << request_id;
  if (!label.empty()) os << " [" << label << "]";
  os << ": latency " << fmt_ms(latency_s) << " (wait " << fmt_ms(queue_wait_s)
     << "), finish at " << fmt_ms(finish_s);
  if (plan_cache_hit) os << ", plan cached";
  if (inputs_resident) os << ", inputs resident";
  if (degraded_to_cpu) os << ", DEGRADED to CPU-only";
  if (deadline_missed) os << ", DEADLINE MISSED (cancelled)";
  if (faults.total_faults() > 0) {
    os << ", faults " << faults.total_faults() << " (retries "
       << faults.retries << ")";
  }
  os << "\n";
  if (!flame.empty()) os << "    |" << flame << "|\n";
  for (const StageSpan& s : spans) {
    os << "    " << hh::to_string(s.resource) << "  " << s.stage << "  ["
       << fmt_ms(s.start_s) << " .. " << fmt_ms(s.end_s) << "]\n";
  }
  return os.str();
}

std::string RequestReport::to_json() const {
  std::ostringstream os;
  os << "{\"request_id\":" << request_id << ",\"label\":" << fmt_json_str(label)
     << ",\"status\":\"" << hh::to_string(status.code)
     << "\",\"plan_cache_hit\":" << fmt_bool(plan_cache_hit)
     << ",\"inputs_resident\":" << fmt_bool(inputs_resident)
     << ",\"degraded_to_cpu\":" << fmt_bool(degraded_to_cpu)
     << ",\"deadline_missed\":" << fmt_bool(deadline_missed)
     << ",\"deadline_s\":" << fmt_num(deadline_s)
     << ",\"faults\":" << faults.to_json()
     << ",\"submit_s\":" << fmt_num(submit_s)
     << ",\"start_s\":" << fmt_num(start_s)
     << ",\"finish_s\":" << fmt_num(finish_s)
     << ",\"queue_wait_s\":" << fmt_num(queue_wait_s)
     << ",\"latency_s\":" << fmt_num(latency_s) << ",\"stages\":[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (i > 0) os << ",";
    os << "{\"stage\":" << fmt_json_str(spans[i].stage) << ",\"resource\":\""
       << hh::to_string(spans[i].resource)
       << "\",\"start_s\":" << fmt_num(spans[i].start_s)
       << ",\"end_s\":" << fmt_num(spans[i].end_s) << "}";
  }
  os << "],\"run\":" << run.to_json() << "}";
  return os.str();
}

std::string BatchReport::to_string() const {
  std::ostringstream os;
  os << "batch: " << requests << " requests, makespan " << fmt_ms(makespan_s)
     << " (serial estimate " << fmt_ms(sequential_estimate_s) << ", "
     << (sequential_estimate_s > 0
             ? fmt_num(sequential_estimate_s / std::max(makespan_s, 1e-300))
             : "n/a")
     << "x)\n";
  os << "  latency "
     << fmt_latency(p50_latency_s, p95_latency_s, p99_latency_s) << "\n";
  os << "  outcome: " << completed << " completed, " << degraded
     << " degraded to CPU, " << deadline_missed << " deadline-missed, "
     << shed << " shed\n";
  os << "  faults: " << faults.to_string()
     << (backoff_jitter ? " (decorrelated jitter)" : "") << "\n";
  os << "  busy: cpu " << fmt_ms(cpu_busy_s) << ", gpu " << fmt_ms(gpu_busy_s)
     << ", h2d " << fmt_ms(h2d_busy_s) << ", d2h " << fmt_ms(d2h_busy_s)
     << "\n";
  os << "  plan cache: " << plan_cache.hits << " hits, " << plan_cache.misses
     << " misses, " << plan_cache.evictions << " evictions, "
     << plan_cache.overwrites << " overwrites, " << plan_cache.quarantines
     << " quarantines\n";
  os << "  waves: " << wave.to_string() << "\n";
  os << "  critpath: " << critpath.to_string() << "\n";
  if (!flame.empty()) os << "  schedule (glyph = request id, '.' = idle):\n"
                         << flame;
  return os.str();
}

std::string BatchReport::to_json() const {
  std::ostringstream os;
  os << "{\"requests\":" << requests << ",\"completed\":" << completed
     << ",\"degraded\":" << degraded
     << ",\"deadline_missed\":" << deadline_missed << ",\"shed\":" << shed
     << ",\"faults\":" << faults.to_json()
     << ",\"backoff_jitter\":" << fmt_bool(backoff_jitter)
     << ",\"makespan_s\":" << fmt_num(makespan_s)
     << ",\"sequential_estimate_s\":" << fmt_num(sequential_estimate_s)
     << ",\"p50_latency_s\":" << fmt_num(p50_latency_s)
     << ",\"p95_latency_s\":" << fmt_num(p95_latency_s)
     << ",\"p99_latency_s\":" << fmt_num(p99_latency_s)
     << ",\"cpu_busy_s\":" << fmt_num(cpu_busy_s)
     << ",\"gpu_busy_s\":" << fmt_num(gpu_busy_s)
     << ",\"h2d_busy_s\":" << fmt_num(h2d_busy_s)
     << ",\"d2h_busy_s\":" << fmt_num(d2h_busy_s)
     << ",\"plan_cache\":{\"hits\":" << plan_cache.hits
     << ",\"misses\":" << plan_cache.misses
     << ",\"evictions\":" << plan_cache.evictions
     << ",\"overwrites\":" << plan_cache.overwrites
     << ",\"quarantines\":" << plan_cache.quarantines
     << "},\"wave\":" << wave.to_json()
     << ",\"critpath\":" << critpath.to_json() << "}";
  return os.str();
}

WorkloadRecord workload_record(const SpgemmRequest& request,
                               const RequestReport& report,
                               const MatrixSignature& a,
                               const MatrixSignature& b, double clock_s) {
  const RunReport& rep = report.run;
  WorkloadRecord w;
  w.id = report.request_id;
  w.label = report.label;
  w.a = a;
  w.b = b;
  w.submit_s = clock_s + report.submit_s;
  w.deadline_s = report.deadline_s;
  w.pin_ta = request.threshold_a;
  w.pin_tb = request.threshold_b;
  w.ta = rep.threshold_a;
  w.tb = rep.threshold_b;
  w.status = hh::to_string(report.status.code);
  w.cache_hit = report.plan_cache_hit;
  w.degraded = report.degraded_to_cpu;
  w.deadline_missed = report.deadline_missed;
  w.latency_s = report.latency_s;
  w.queue_wait_s = report.queue_wait_s;
  w.phase1_s = rep.phase1_s;
  w.phase2_s = rep.phase2_s;
  w.phase3_s = rep.phase3_s;
  w.phase4_s = rep.phase4_s;
  w.tx_in_s = rep.transfer_in_s;
  w.tx_out_s = rep.transfer_out_s;
  w.output_nnz = rep.output_nnz;
  w.faults = report.faults.total_faults();
  w.retries = report.faults.retries;
  return w;
}

SpgemmService::SpgemmService(const HeteroPlatform& platform, ThreadPool& pool,
                             Config config)
    : platform_(platform),
      pool_(pool),
      config_(config),
      plan_cache_(kPlanCacheCapacity),
      injector_(config.fault_plan),
      tuner_(config.tune),
      jitter_rng_(config.recovery.jitter_seed) {
  plan_cache_.bind_metrics(&metrics_);
  keep_freed_heap();
}

TuneReport SpgemmService::tune_report() const {
  return {config_.tune.enabled, tuner_.snapshot()};
}

void validate_spgemm_request(const SpgemmRequest& request,
                             std::unordered_set<const CsrMatrix*>& checked) {
  if (request.a == nullptr) {
    throw InvalidArgumentError("request needs an A operand");
  }
  const CsrMatrix& a = *request.a;
  const CsrMatrix& b = request.b != nullptr ? *request.b : a;
  auto check_operand = [&checked](const CsrMatrix& m, const char* side) {
    if (m.rows <= 0 || m.cols <= 0) {
      std::ostringstream os;
      os << side << " operand is empty (" << m.rows << "x" << m.cols << ")";
      throw InvalidArgumentError(os.str());
    }
    if (checked.contains(&m)) return;
    const std::string why = m.defect(/*sorted=*/false);
    if (!why.empty()) {
      throw InvalidArgumentError(std::string(side) +
                                 " operand is malformed: " + why);
    }
    checked.insert(&m);
  };
  check_operand(a, "A");
  if (request.b != nullptr) check_operand(b, "B");
  if (a.cols != b.rows) {
    std::ostringstream os;
    os << "incompatible shapes for product: A is " << a.rows << "x" << a.cols
       << ", B is " << b.rows << "x" << b.cols;
    throw InvalidArgumentError(os.str());
  }
  if (request.threshold_a < 0 || request.threshold_b < 0) {
    throw InvalidArgumentError("thresholds must be >= 0 (0 = analytic pick)");
  }
  if (request.deadline_s < 0) {
    throw InvalidArgumentError("deadline must be >= 0 (0 = none)");
  }
}

std::size_t SpgemmService::submit(SpgemmRequest request) {
  validate_spgemm_request(request, checked_);
  if (config_.admission_capacity > 0 &&
      queue_.size() >= config_.admission_capacity) {
    metrics_.counter("service.shed").inc();
    std::ostringstream os;
    os << "admission queue full (" << queue_.size() << "/"
       << config_.admission_capacity << "), request shed";
    throw AdmissionError(os.str());
  }
  queue_.push_back(std::move(request));
  return next_id_++;
}

void SpgemmService::invalidate_inputs() {
  signatures_.clear();
  checksums_.clear();
  structures_.clear();
  checked_.clear();
  residency_.clear();
}

const MatrixSignature& SpgemmService::signature_of(const CsrMatrix* m) {
  auto it = signatures_.find(m);
  if (it == signatures_.end()) {
    it = signatures_.emplace(m, matrix_signature(*m)).first;
  }
  return it->second;
}

std::uint64_t SpgemmService::content_key(const CsrMatrix* m) {
  auto it = checksums_.find(m);
  if (it == checksums_.end()) {
    it = checksums_.emplace(m, matrix_checksum(*m)).first;
  }
  return it->second;
}

std::uint64_t SpgemmService::structure_key(const CsrMatrix* m) {
  auto it = structures_.find(m);
  if (it == structures_.end()) {
    it = structures_.emplace(m, structure_checksum(*m)).first;
  }
  return it->second;
}

// ---- Symbolic results.

SymbolicCache::Result SymbolicCache::lookup(
    const CsrMatrix& a, const CsrMatrix& b, std::uint64_t a_key,
    std::uint64_t b_key, offset_t t, ThreadPool& pool,
    std::span<offset_t> row_nnz) {
  const bool self = &b == &a;
  std::uint64_t key = a_key;
  checksum_mix(key, b_key);
  Pair* pair = nullptr;
  const auto [first, last] = pairs_.equal_range(key);
  for (auto it = first; it != last && pair == nullptr; ++it) {
    Pair& p = it->second;
    if (p.self == self && p.a.matches(a) && (self || p.b.matches(b))) {
      pair = &p;
    }
  }
  if (pair == nullptr) {
    Pair p;
    p.self = self;
    p.a = CsrPattern::of(a);
    if (!self) p.b = CsrPattern::of(b);
    pair = &pairs_.emplace(key, std::move(p))->second;
  }
  pair->used = true;
  const std::int64_t cap = shared_accum_cap();
  const auto held =
      std::find_if(pair->costs.begin(), pair->costs.end(), [&](const Costs& c) {
        return c.t == t && c.shared_cap == cap;
      });
  if (held != pair->costs.end() && pair->c != nullptr) {
    ++stats_.hits;
    held->used = true;
    return {held->costs, pair};
  }
  ++stats_.misses;
  auto costs = std::make_shared<const MaskedRowCosts>(row_costs_at(
      a, b, t, pool, pair->c != nullptr ? std::span<offset_t>{} : row_nnz));
  if (held == pair->costs.end()) {
    pair->costs.push_back({t, cap, costs});
  } else {
    held->used = true;  // the pass ran for C's row sizes; same costs
  }
  return {std::move(costs), pair};
}

void SymbolicCache::numeric_pass(const Result& found, const CsrMatrix& a,
                                 const CsrMatrix& b,
                                 std::span<const std::uint8_t> a_side,
                                 std::span<const std::uint8_t> b_side,
                                 CsrMatrix& c, ThreadPool& pool,
                                 WorkspacePool* workspace) {
  Pair& pair = *found.pair;
  if (pair.c != nullptr) {
    numeric_in_halves(a, b, a_side, b_side, *pair.c, c, pool, workspace);
    ++stats_.pattern_passes;
  } else {
    numeric_in_halves(a, b, a_side, b_side, c, pool, workspace);
  }
  HH_CHECK_MSG(c.nnz() == found.costs->output_nnz,
               "C has " << c.nnz() << " entries, its symbolic result "
                        << found.costs->output_nnz);
  if (pair.c == nullptr) {
    pair.c = std::make_unique<const CsrPattern>(CsrPattern::of(c));
  }
}

void SymbolicCache::end_drain() {
  std::erase_if(pairs_, [](const auto& kv) { return !kv.second.used; });
  for (auto& [key, p] : pairs_) {
    std::erase_if(p.costs, [](const Costs& c) { return !c.used; });
    for (Costs& c : p.costs) c.used = false;
    p.used = false;
  }
}

SymbolicCache::Stats SymbolicCache::stats() const {
  Stats s = stats_;
  s.entries = pairs_.size();
  return s;
}

// One drain() pass. The queue is cut into waves (runtime/wave.hpp); each
// wave uploads its distinct operands once, then every member request runs
// the same stages — plan, upload gate, Phase II, Phase III (with the D2H
// shipment or the CPU-only degrade), merge, accounting — on four
// independently-clocked timelines. Every retried device operation goes
// through attempt_with_retry. Every placement is recorded once, in the
// drain's event log; request spans, critpath and flame read it back.
class SpgemmService::Drain {
 public:
  explicit Drain(SpgemmService& s);
  BatchResult run();

 private:
  // One distinct operand of the wave in flight: its users, its upload
  // outcome, and the faults attributed to its first user.
  struct WaveOperand {
    const CsrMatrix* m = nullptr;
    std::uint64_t key = 0;      // content checksum: the residency key
    std::size_t first_req = 0;  // queue index of the first user
    int refs = 0;               // users among the wave's requests
    double ready_s = 0;         // device copy usable from here on
    double attributed_s = 0;    // upload time charged to first_req
    double failed_at = 0;
    bool failed = false;  // retries exhausted: every user degrades
    FaultRecoveryStats faults;
  };

  // One request's state as it moves through the stages.
  struct Request {
    Request(std::size_t i, const SpgemmRequest& q)
        : index(i), req(q), a(*q.a), b(q.b != nullptr ? *q.b : *q.a) {}

    std::size_t index;  // queue position
    const SpgemmRequest& req;
    const CsrMatrix& a;
    const CsrMatrix& b;  // A for a self product
    RequestReport rr;
    // Phase I.
    bool cacheable = false;
    bool tunable = false;
    offset_t tuned_t = 0;  // the variant this request measures (0 = none)
    PlanKey cache_key;
    PartitionPlan plan;
    // Outcome so far.
    bool cancelled = false;
    bool degraded = false;
    double degrade_at = 0;  // clock where the degrade decision landed
    double tx_gate = 0;     // operands usable on the device from here on
    // Phases II–IV: the symbolic result at the plan's B threshold, shared
    // read-only with every request of the same structure; C from the
    // numeric pass, into the pair's pattern when it holds one, else into
    // the row sizes the lookup wrote into c.indptr.
    SymbolicCache::Result sym;
    CsrMatrix c;
    Phase2Result p2;
    WorkQueueResult q;
    bool q_ran = false;
    bool have_output = false;
    StageSpan analyze{}, cpu2{}, gpu2{}, q_cpu{}, q_gpu{}, tx_out{}, deg{};

    bool past_deadline(double t) const {
      return rr.deadline_s > 0 && t - rr.submit_s > rr.deadline_s + 1e-15;
    }
    void check_deadline(double t) {
      if (past_deadline(t)) cancelled = true;
    }
  };

  // How one retried operation ended: ok, or failed (retries exhausted, or
  // the owning request's deadline passed). `last` is the final attempt.
  struct Retried {
    bool ok = false;
    StageSpan last{};
    DeviceAttempt attempt;
    double elapsed_s = 0;  // summed over every attempt
  };

  std::vector<WaveBounds> form_waves_for_queue();
  void begin_wave(const WaveBounds& wb);
  void upload(const std::vector<std::size_t>& pending);
  void uploaded(WaveOperand& op, double ready_s);
  template <typename Attempt>
  Retried attempt_with_retry(ResourceTimeline& lane, const StageNames& names,
                             double ready, double earliest, Attempt&& attempt,
                             FaultRecoveryStats& faults, Request* owner);
  StageSpan cpu_stage(Request& r, const char* name, double earliest,
                      double base);
  void degrade(Request& r, double at);
  void scope(std::size_t queue_index);
  void unscope();
  double lanes_now() const;
  std::span<const TraceEvent> events_from(std::size_t log_index) const;

  void run_request(std::size_t i);
  void plan(Request& r);
  void gate_uploads(Request& r);
  void phase2(Request& r);
  void phase3(Request& r);
  void ship_tuples(Request& r);
  void replan_degraded(Request& r);
  void merge(Request& r);
  void settle(Request& r);
  void feed_tuner(Request& r);
  void record(Request& r);
  void release_operands(const Request& r);

  void finish_batch();
  void profile_critical_path(BatchReport& batch);
  void publish_metrics(BatchReport& batch);

  SpgemmService& s_;
  const HeteroPlatform& platform_;
  const RecoveryPolicy& rp_;
  // The drain's one event log: Config::trace when attached and enabled,
  // else own_log_. The timelines record every placement into it; this
  // drain's events start at log_begin_ (a caller's recorder may hold
  // earlier drains'), the current wave's at wave_log_begin_.
  TraceRecorder own_log_;
  TraceRecorder& log_;
  std::size_t log_begin_;
  std::size_t wave_log_begin_ = 0;
  // Fresh timelines per drain: the batch clock starts at 0.
  ResourceTimeline cpu_, gpu_, h2d_, d2h_;
  FaultInjector* fi_;
  std::size_t first_id_;
  WaveStats wstats_;
  std::vector<int> wave_of_;  // wave index of each request, queue order
  std::vector<WaveOperand> wave_ops_;
  std::unordered_map<std::uint64_t, std::size_t> wave_op_index_;
  bool gpu_lead_done_ = false;  // the wave's first healthy launch happened
  std::vector<double> latencies_;
  double makespan_ = 0;
  double seq_estimate_ = 0;
  BatchResult out_;
};

SpgemmService::Drain::Drain(SpgemmService& s)
    : s_(s),
      platform_(s.platform_),
      rp_(s.config_.recovery),
      log_(event_log(s.config_.trace, own_log_)),
      log_begin_(log_.events().size()),
      cpu_(Resource::kCpu, &log_),
      gpu_(Resource::kGpu, &log_),
      h2d_(Resource::kH2D, &log_),
      d2h_(Resource::kD2H, &log_),
      fi_(s.config_.fault_plan.enabled() ? &s.injector_ : nullptr),
      first_id_(s.next_id_ - s.queue_.size()) {}

BatchResult SpgemmService::drain() {
  checked_.clear();
  BatchResult out = Drain(*this).run();
  symbolic_.end_drain();
  return out;
}

BatchResult SpgemmService::Drain::run() {
  const std::size_t n = s_.queue_.size();
  out_.results.reserve(n);
  out_.requests.reserve(n);
  latencies_.reserve(n);
  const std::vector<WaveBounds> waves = form_waves_for_queue();
  for (std::size_t w = 0; w < waves.size(); ++w) {
    wave_of_.resize(waves[w].end, static_cast<int>(w));  // waves are contiguous
    begin_wave(waves[w]);
    for (std::size_t i = waves[w].begin; i < waves[w].end; ++i) {
      run_request(i);
    }
    log_.instant(TraceCategory::kWave, "wave-end", lanes_now());
  }
  s_.queue_.clear();
  finish_batch();
  return std::move(out_);
}

// ---- Waves.

// Waves group the queue, in submit order, by operand content; with the
// wave executor disabled every wave holds one request.
std::vector<WaveBounds> SpgemmService::Drain::form_waves_for_queue() {
  std::unordered_map<std::uint64_t, std::uint32_t> dense_ids;
  std::vector<std::array<std::uint32_t, 2>> operand_ids;
  operand_ids.reserve(s_.queue_.size());
  const auto id_of = [&](const CsrMatrix* m) {
    return dense_ids
        .emplace(s_.content_key(m),
                 static_cast<std::uint32_t>(dense_ids.size()))
        .first->second;
  };
  for (const SpgemmRequest& q : s_.queue_) {
    const auto [a, b] = operands_of(q);
    const std::uint32_t ia = id_of(a);
    operand_ids.push_back({ia, b != nullptr ? id_of(b) : ia});
  }
  return form_waves(operand_ids,
                    s_.config_.wave.enabled ? WaveConfig::kMaxRequests : 1,
                    WaveConfig::kMaxOperands);
}

// Wave preamble: collect the wave's distinct operands, refcount their users,
// and upload each one not already resident exactly once.
void SpgemmService::Drain::begin_wave(const WaveBounds& wb) {
  wave_ops_.clear();
  wave_op_index_.clear();
  gpu_lead_done_ = false;
  wave_log_begin_ = log_.events().size();
  wstats_.waves++;
  wstats_.wave_requests += static_cast<std::int64_t>(wb.end - wb.begin);
  log_.instant(TraceCategory::kWave, "wave-begin", lanes_now());
  for (std::size_t r = wb.begin; r < wb.end; ++r) {
    for (const CsrMatrix* m : operands_of(s_.queue_[r])) {
      if (m == nullptr) continue;
      const std::uint64_t key = s_.content_key(m);
      const auto [it, fresh] = wave_op_index_.emplace(key, wave_ops_.size());
      if (fresh) {
        WaveOperand op;
        op.m = m;
        op.key = key;
        op.first_req = r;
        wave_ops_.push_back(std::move(op));
      }
      wave_ops_[it->second].refs++;
    }
  }
  std::vector<std::size_t> pending;
  for (std::size_t k = 0; k < wave_ops_.size(); ++k) {
    const auto rit = s_.residency_.find(wave_ops_[k].key);
    if (rit != s_.residency_.end()) {
      rit->second += wave_ops_[k].refs;  // already on the device: reuse
    } else {
      pending.push_back(k);
    }
  }
  if (!pending.empty()) upload(pending);
}

// Every upload is runnable at the wave's start. When every first attempt
// is healthy the uploads stream as one contiguous H2D block placed from
// ResourceTimeline::block_start — the lead transfer pays the link latency,
// followers ride back-to-back behind it (device/pcie.hpp batched costing).
// Otherwise each operand retries on its own from where the previous one
// ended, every retry re-arbitrating the link. Each operand's upload is
// placed (and its faults counted) under its first user.
void SpgemmService::Drain::upload(const std::vector<std::size_t>& pending) {
  const PcieChannel& link = platform_.link().h2d();
  std::vector<DeviceAttempt> first;
  first.reserve(pending.size());
  bool healthy = true;
  double total = 0;
  for (std::size_t k = 0; k < pending.size(); ++k) {
    first.push_back(link.matrix_transfer_attempt(*wave_ops_[pending[k]].m, fi_,
                                                 /*lead=*/k == 0));
    healthy &= first.back().ok;
    total += first.back().elapsed_s;
  }
  double cursor = healthy ? h2d_.block_start(0.0, total) : 0.0;
  for (std::size_t k = 0; k < pending.size(); ++k) {
    WaveOperand& op = wave_ops_[pending[k]];
    scope(op.first_req);
    bool fresh = true;  // the first attempt was already drawn above
    const Retried r = attempt_with_retry(
        h2d_, kUploadStage, /*ready=*/0.0, cursor,
        [&] {
          if (std::exchange(fresh, false)) return first[k];
          return link.matrix_transfer_attempt(*op.m, fi_);
        },
        op.faults, /*owner=*/nullptr);
    unscope();
    op.attributed_s = r.elapsed_s;
    cursor = r.last.end_s;
    if (r.ok) {
      uploaded(op, cursor);
    } else {
      op.failed = true;
      op.failed_at = cursor;
    }
  }
  if (healthy) {
    wstats_.coalesced_uploads += static_cast<std::int64_t>(pending.size()) - 1;
    log_.instant_on(TraceCategory::kWave, "wave-h2d-coalesced", Resource::kH2D,
                    cursor);
  }
}

void SpgemmService::Drain::uploaded(WaveOperand& op, double ready_s) {
  op.ready_s = ready_s;
  s_.residency_.emplace(op.key, op.refs);
  wstats_.uploads++;
  wstats_.deduped_uploads += op.refs - 1;
  wstats_.h2d_bytes += static_cast<std::int64_t>(op.m->byte_size());
}

// ---- The retry rule (docs/robustness.md). Each attempt is placed on
// `lane`; a failed attempt counts a fault, and then, in order: a request
// past its deadline is cancelled; an operation out of attempts fails (its
// request degrades to the CPU-only path); otherwise it retries after a
// backoff wait. GPU kernels count aborts request-wide — the degrade limit
// and the backoff exponent are the request's GPU abort count, across
// Phase II and Phase III — while transfers count per operation against
// kMaxAttempts. The first attempt is runnable at `ready` and placed no
// earlier than `earliest`; a retry is runnable when its backoff ends.
// `owner` is the request the operation belongs to (nullptr for a wave
// upload, which no single deadline governs).
template <typename Attempt>
SpgemmService::Drain::Retried SpgemmService::Drain::attempt_with_retry(
    ResourceTimeline& lane, const StageNames& names, double ready,
    double earliest, Attempt&& attempt, FaultRecoveryStats& faults,
    Request* owner) {
  const Resource res = lane.resource();
  const bool gpu = res == Resource::kGpu;
  const bool h2d = res == Resource::kH2D;
  int failures = 0;
  constexpr double base = RecoveryPolicy::kBackoffBaseS;
  double prev_wait = base;  // decorrelated-jitter chain
  Retried r;
  for (;;) {
    const DeviceAttempt at = attempt();
    const StageSpan s = lane.reserve(
        at.ok ? names.ok : at.corrupt ? names.corrupt : names.fault, earliest,
        at.elapsed_s, ready);
    r.elapsed_s += at.elapsed_s;
    r.last = s;
    r.attempt = at;
    if (at.ok) {
      r.ok = true;
      if (owner != nullptr) owner->check_deadline(s.end_s);
      return r;
    }
    int& site_faults =
        gpu ? faults.gpu_aborts : h2d ? faults.h2d_faults : faults.d2h_faults;
    ++site_faults;
    const char* fault = gpu ? "gpu-abort"
                        : h2d ? (at.corrupt ? "h2d-corrupt" : "h2d-fault")
                              : (at.corrupt ? "d2h-corrupt" : "d2h-fault");
    log_.instant_on(TraceCategory::kFault, fault, res, s.end_s, at.op);
    if (at.corrupt) faults.corruptions++;
    failures = gpu ? faults.gpu_aborts : failures + 1;
    if (owner != nullptr && owner->past_deadline(s.end_s)) {
      owner->cancelled = true;
      return r;
    }
    if (failures >= (gpu ? RecoveryPolicy::kGpuFailuresBeforeDegrade
                         : RecoveryPolicy::kMaxAttempts)) {
      if (owner != nullptr) degrade(*owner, s.end_s);
      return r;
    }
    faults.retries++;
    log_.instant_on(TraceCategory::kRetry,
                    gpu ? "retry-gpu" : h2d ? "retry-h2d" : "retry-d2h", res,
                    s.end_s, at.op);
    double wait;
    if (!rp_.decorrelated_jitter) {
      wait = base * std::pow(RecoveryPolicy::kBackoffMultiplier, failures - 1);
    } else {
      const double u = s_.jitter_rng_.uniform();
      wait = std::min(base + u * (3.0 * prev_wait - base),
                      RecoveryPolicy::kBackoffCapS);
      prev_wait = wait;
    }
    faults.backoff_s += wait;
    ready = earliest = s.end_s + wait;
  }
}

// A CPU stage: its duration plus any injected worker stall (stalls delay,
// never fail). Zero-duration stages consume no injector op so the fault
// schedule is stable across degenerate partitions.
StageSpan SpgemmService::Drain::cpu_stage(Request& r, const char* name,
                                          double earliest, double base) {
  DeviceAttempt stall;
  if (base > 0) {
    stall = platform_.cpu().stall_attempt(fi_);
    if (stall.elapsed_s > 0) r.rr.faults.cpu_stalls++;
  }
  const StageSpan s = cpu_.reserve(name, earliest, base + stall.elapsed_s);
  if (stall.elapsed_s > 0) {
    log_.instant_on(TraceCategory::kFault, "cpu-stall", Resource::kCpu,
                    s.end_s, stall.op);
  }
  r.check_deadline(s.end_s);
  return s;
}

void SpgemmService::Drain::degrade(Request& r, double at) {
  r.degraded = true;
  r.degrade_at = std::max(r.degrade_at, at);
  log_.instant(TraceCategory::kDegrade, "degrade-to-cpu", at);
}

// Event identity of the request at `queue_index`: everything recorded until
// unscope() carries its id.
void SpgemmService::Drain::scope(std::size_t queue_index) {
  log_.begin_request(first_id_ + queue_index);
}

void SpgemmService::Drain::unscope() { log_.end_request(); }

double SpgemmService::Drain::lanes_now() const {
  return std::max({cpu_.now(), gpu_.now(), h2d_.now(), d2h_.now()});
}

// The log's events from `log_index` on. Recording invalidates the view.
std::span<const TraceEvent> SpgemmService::Drain::events_from(
    std::size_t log_index) const {
  return std::span<const TraceEvent>(log_.events()).subspan(log_index);
}

// ---- Per-request stages.

void SpgemmService::Drain::run_request(std::size_t i) {
  Request r(i, s_.queue_[i]);
  r.rr.request_id = first_id_ + i;
  scope(i);
  r.rr.label = r.req.label;
  r.rr.submit_s = 0;
  r.rr.deadline_s = r.req.deadline_s;
  r.rr.run.algorithm = "HH-CPU (pipelined)";

  plan(r);
  gate_uploads(r);
  phase2(r);
  phase3(r);
  merge(r);
  settle(r);
  feed_tuner(r);
  record(r);
  release_operands(r);

  RunResult res;
  if (r.have_output) res.c = std::move(r.c);
  res.report = r.rr.run;
  out_.results.push_back(std::move(res));
  out_.requests.push_back(std::move(r.rr));
  unscope();
}

// Phase I: plan through the cache when thresholds are not pinned.
void SpgemmService::Drain::plan(Request& r) {
  RequestReport& rr = r.rr;
  RunReport& rep = rr.run;
  offset_t t_a = r.req.threshold_a;
  offset_t t_b = r.req.threshold_b;
  r.cacheable = t_a <= 0 || t_b <= 0;
  // The autotuner engages only for fully-unpinned requests: a pinned
  // threshold is the caller's explicit choice, never second-guessed.
  r.tunable = s_.config_.tune.enabled && t_a <= 0 && t_b <= 0;
  ThresholdTuner& tuner = s_.tuner_;
  if (r.cacheable) {
    r.cache_key = PlanKey{s_.signature_of(&r.a), s_.signature_of(&r.b)};
    if (r.tunable && !tuner.has_entry(r.cache_key)) {
      // The pair's first tunable request, a cold miss or a plan cached
      // before tuning was enabled: the tuner keeps the whole analytic
      // ranking. A known pair never sweeps again, not even on a miss after
      // an eviction or a quarantine.
      tuner.admit(r.cache_key, sweep_thresholds(r.a, r.b, platform_));
    }
    if (const auto cached = s_.plan_cache_.lookup(r.cache_key)) {
      // A pinned side keeps its pin; the cache fills only unpinned ones.
      if (t_a <= 0) t_a = cached->threshold_a;
      if (t_b <= 0) t_b = cached->threshold_b;
      rr.plan_cache_hit = true;
      if (r.tunable) {
        const ThresholdTuner::Decision d = tuner.decide(r.cache_key);
        s_.metrics_.counter("tune.decisions").inc();
        r.tuned_t = d.t;
        t_a = t_b = d.t;
        if (d.explore) {
          s_.metrics_.counter("tune.explorations").inc();
          log_.instant(TraceCategory::kTune, "tune-explore", rr.submit_s);
        }
      }
    }
  }
  if (r.cacheable) {
    log_.instant(TraceCategory::kScheduler,
                 rr.plan_cache_hit ? "plan-cache-hit" : "plan-cache-miss",
                 rr.submit_s);
  }
  if (r.tunable && !rr.plan_cache_hit) {
    // A miss serves the incumbent: for a new pair the analytic sweep's best,
    // exactly the pick make_partition_plan would have made on its own.
    t_a = t_b = tuner.incumbent(r.cache_key);
    r.tuned_t = t_a;
  }
  r.plan = make_partition_plan(r.a, r.b, t_a, t_b, platform_);
  if (r.cacheable && !rr.plan_cache_hit) {
    // Cache the identified t on both sides, as a cold unpinned request
    // gets it, whichever side this request pinned.
    const offset_t identified = r.req.threshold_a <= 0
                                    ? r.plan.a.threshold
                                    : r.plan.b.threshold;
    CachedPlan fresh;
    fresh.threshold_a = identified;
    fresh.threshold_b = identified;
    s_.plan_cache_.insert(r.cache_key, fresh);
  }
  rep.threshold_a = r.plan.a.threshold;
  rep.threshold_b = r.plan.b.threshold;
  rep.high_rows_a = r.plan.a.high_count();
  rep.high_rows_b = r.plan.b.high_count();

  // A cache hit skips the identification pass but still classifies.
  rep.phase1_s = rr.plan_cache_hit ? r.plan.classify_s : r.plan.phase1_s;
  r.analyze =
      cpu_stage(r, rr.plan_cache_hit ? "analyze(cached-plan)" : "analyze",
                rr.submit_s, rep.phase1_s);
}

// The uploads ran in the wave preamble. Collect this request's readiness
// gate, attribute each operand's upload time and faults to its first user,
// and degrade every user of an operand whose upload retries were exhausted.
void SpgemmService::Drain::gate_uploads(Request& r) {
  r.tx_gate = r.rr.submit_s;
  double tx_in_total = 0;
  for (const CsrMatrix* m : operands_of(r.req)) {
    if (m == nullptr) continue;
    const WaveOperand& op = wave_ops_[wave_op_index_.at(s_.content_key(m))];
    r.tx_gate = std::max(r.tx_gate, op.ready_s);
    if (op.first_req == r.index) {
      r.rr.faults.accumulate(op.faults);
      tx_in_total += op.attributed_s;
    }
    if (op.failed && !r.degraded) degrade(r, op.failed_at);
  }
  r.check_deadline(r.tx_gate);
  r.rr.inputs_resident = tx_in_total == 0;
  r.rr.run.transfer_in_s = tx_in_total;
}

// Phase II pricing + scheduling, from the symbolic result of the request's
// structure and B threshold: cached, or built here by the one symbolic pass,
// which also writes C's row sizes while the pair has no pattern.
// The numeric work (merge()) always executes host-side with the same
// decomposition, so retries and degradation cannot change the output bits.
void SpgemmService::Drain::phase2(Request& r) {
  if (r.cancelled) return;
  RunReport& rep = r.rr.run;
  r.c = CsrMatrix(r.a.rows, r.b.cols);
  r.sym = s_.symbolic_.lookup(r.a, r.b, s_.structure_key(&r.a),
                              s_.structure_key(&r.b), r.plan.b.threshold,
                              s_.pool_, std::span(r.c.indptr).subspan(1));
  r.p2 = cost_phase2(r.plan, *r.sym.costs, platform_);
  rep.phase2_cpu_s = r.p2.cpu_s;
  rep.phase2_gpu_s = r.p2.gpu_s;
  rep.phase2_s = HeteroPlatform::overlap(r.p2.cpu_s, r.p2.gpu_s);
  r.cpu2 = cpu_stage(r, "phase2-cpu", r.analyze.end_s, r.p2.cpu_s);

  r.gpu2 = StageSpan{"phase2-gpu", Resource::kGpu, r.analyze.end_s,
                     r.analyze.end_s};
  if (r.cancelled || r.degraded || r.p2.gpu_s <= 0) return;
  // The wave's first healthy Phase II launch is the lead and pays the
  // kernel-launch overhead; same-wave followers skip it (batched costing).
  // rep.phase2_* stay the model times from cost_phase2, so tuner feedback
  // does not depend on the wave shape.
  const double ready = std::max(r.analyze.end_s, r.tx_gate);
  const Retried t = attempt_with_retry(
      gpu_, kPhase2GpuStage, ready, ready,
      [&] {
        return platform_.gpu().kernel_attempt(r.p2.ll_stats, fi_,
                                              /*lead=*/!gpu_lead_done_);
      },
      r.rr.faults, &r);
  if (!t.ok) return;
  r.gpu2 = t.last;
  if (t.attempt.elapsed_s > 0) {
    if (gpu_lead_done_) wstats_.batched_launches++;
    gpu_lead_done_ = true;
  }
}

// Phase III: the double-ended queue occupies both devices from their
// current frontiers. A degraded request re-plans the queue with the GPU
// never joining: every unit runs on the CPU end — the CPU-only Gustavson
// path — and the products (hence the output) are unchanged.
void SpgemmService::Drain::phase3(Request& r) {
  if (r.cancelled) return;
  RunReport& rep = r.rr.run;
  const double cpu_q_start =
      std::max({cpu_.now(), r.analyze.end_s, r.cpu2.end_s});
  const double gpu_q_start =
      r.degraded ? kGpuNeverJoins
                 : std::max({gpu_.now(), r.analyze.end_s, r.tx_gate,
                             r.gpu2.end_s});
  r.q = cost_phase3(r.plan, *r.sym.costs, WorkQueueConfig{}, cpu_q_start,
                    gpu_q_start, platform_);
  r.q_ran = true;
  rep.phase3_cpu_s = r.q.cpu_busy;
  rep.phase3_gpu_s = r.q.gpu_busy;
  rep.phase3_s = HeteroPlatform::overlap(r.q.cpu_busy, r.q.gpu_busy);
  rep.queue_cpu_units = r.q.cpu_units;
  rep.queue_gpu_units = r.q.gpu_units;
  r.q_cpu = cpu_stage(r, "phase3-cpu", cpu_q_start, r.q.cpu_busy);

  r.q_gpu = StageSpan{"phase3-gpu", Resource::kGpu, r.gpu2.end_s,
                      r.gpu2.end_s};
  if (!r.cancelled && !r.degraded && r.q.gpu_busy > 0) {
    // The queue's GPU share executes as one fault domain: an abort re-runs
    // the whole share (its units were a single stream of back-to-back
    // launches feeding one tuple buffer).
    const Retried t = attempt_with_retry(
        gpu_, kPhase3GpuStage, gpu_q_start, gpu_q_start,
        [&] {
          DeviceAttempt at = platform_.gpu().kernel_attempt(r.q.gpu_stats, fi_);
          if (at.ok) at.elapsed_s = r.q.gpu_busy;
          return at;
        },
        r.rr.faults, &r);
    if (t.ok) r.q_gpu = t.last;
  }
  ship_tuples(r);
  replan_degraded(r);
}

// D2H shipment of the GPU tuples (skipped when degraded: the CPU recomputes
// the GPU share locally, nothing crosses the link).
void SpgemmService::Drain::ship_tuples(Request& r) {
  if (r.cancelled || r.degraded) return;
  const std::int64_t gpu_tuples =
      r.p2.ll_stats.tuples + r.q.gpu_stats.tuples;
  if (gpu_tuples <= 0) return;
  const double ready = std::max(r.gpu2.end_s, r.q_gpu.end_s);
  const Retried t = attempt_with_retry(
      d2h_, kD2hStage, ready, ready,
      [&] {
        return platform_.link().d2h().tuple_transfer_attempt(gpu_tuples, fi_);
      },
      r.rr.faults, &r);
  r.rr.run.transfer_out_s += t.elapsed_s;
  if (t.ok) r.tx_out = t.last;
}

// Degraded re-plan: the CPU redoes the GPU's share (Phase II A_L×B_L and
// whatever the queue had assigned to the GPU) with its own cost model.
// Numerically this is the same host-side Gustavson work that produced the
// tuples, so the output bits are unchanged.
void SpgemmService::Drain::replan_degraded(Request& r) {
  if (r.cancelled || !r.degraded) return;
  const CpuSim& cpu = platform_.cpu();
  const double extra =
      cpu.kernel_time(r.p2.ll_stats, r.plan.ws_bl_bytes, /*rewritten=*/true,
                      /*blockable=*/false) +
      cpu.kernel_time(r.q.gpu_stats, r.plan.ws_bl_bytes, /*rewritten=*/true,
                      /*blockable=*/false);
  if (extra <= 0) return;
  r.deg = cpu_.reserve("degraded-cpu-replan",
                       std::max({r.q_cpu.end_s, r.cpu2.end_s, r.degrade_at}),
                       extra);
  r.check_deadline(r.deg.end_s);
}

// Phase IV merge. It is priced whenever Phase III ran, even for a request
// already past its deadline, so that request still reports its merge; C's
// numeric pass runs only for a request that returns it: the known-pattern
// pass when the request's operand pair holds C's pattern, which writes only
// values, else the full pass, whose C gives the pair its pattern.
void SpgemmService::Drain::merge(Request& r) {
  RunReport& rep = r.rr.run;
  rep.flops = r.p2.hh_stats.flops + r.p2.ll_stats.flops +
              r.q.cpu_stats.flops + r.q.gpu_stats.flops;
  if (!r.q_ran) return;
  rep.merge.tuples_in = r.p2.hh_stats.tuples + r.p2.ll_stats.tuples +
                        r.q.cpu_stats.tuples + r.q.gpu_stats.tuples;
  rep.merge.tuples_out = r.sym.costs->output_nnz;
  rep.phase4_s = platform_.cpu().merge_time(rep.merge.tuples_in);
  if (r.cancelled) return;
  const double ready =
      std::max({r.q_cpu.end_s, r.tx_out.end_s, r.deg.end_s, r.cpu2.end_s});
  cpu_stage(r, "merge", ready, rep.phase4_s);
  r.have_output = !r.cancelled;
  if (r.have_output) {
    s_.symbolic_.numeric_pass(r.sym, r.a, r.b, r.plan.a.is_high,
                              r.plan.b.is_high, r.c, s_.pool_, &s_.workspace_);
  }
}

// Request accounting: the request's spans and their envelope, status, and
// the batch aggregates.
void SpgemmService::Drain::settle(Request& r) {
  RequestReport& rr = r.rr;
  RunReport& rep = rr.run;
  // Every placement of this request is in the log from its wave's start on:
  // its uploads ran in the wave preamble, its stages since.
  for (const TraceEvent& e : events_from(wave_log_begin_)) {
    if (e.kind == TraceEventKind::kSpan && e.request_id == rr.request_id) {
      rr.spans.push_back({e.name, e.resource, e.start_s, e.end_s});
    }
  }
  rr.start_s = rr.submit_s;
  rr.finish_s = rr.submit_s;
  for (std::size_t k = 0; k < rr.spans.size(); ++k) {
    rr.start_s = k == 0 ? rr.spans[k].start_s
                        : std::min(rr.start_s, rr.spans[k].start_s);
    rr.finish_s = std::max(rr.finish_s, rr.spans[k].end_s);
  }
  rr.queue_wait_s = rr.start_s - rr.submit_s;
  rr.latency_s = rr.finish_s - rr.submit_s;
  rr.degraded_to_cpu = r.degraded;
  if (r.cancelled) {
    rr.deadline_missed = true;
    std::ostringstream os;
    os << "deadline of " << rr.deadline_s << " s exceeded at " << rr.finish_s
       << " s; request cancelled";
    rr.status = Status{StatusCode::kDeadlineExceeded, os.str()};
    log_.instant(TraceCategory::kCancel, "deadline-cancel", rr.finish_s);
    // The plan this request rode on is suspect until re-identified.
    if (r.cacheable && rr.plan_cache_hit) {
      s_.plan_cache_.quarantine(r.cache_key);
    }
  }
  rep.output_nnz = r.have_output ? r.c.nnz() : 0;
  rep.total_s = rr.latency_s;

  makespan_ = std::max(makespan_, rr.finish_s);
  latencies_.push_back(rr.latency_s);
  // First-order cost of the same request run serially (run_hh_cpu): cold
  // transfers, cold identification, single-clock overlap accounting.
  const double seq_tx_in =
      platform_.link().h2d().operands_transfer_time(r.a, r.b);
  const double seq_cpu_end =
      r.plan.phase1_s + rep.phase2_cpu_s + rep.phase3_cpu_s;
  const double seq_gpu_end =
      r.plan.phase1_s + seq_tx_in + rep.phase2_gpu_s + rep.phase3_gpu_s;
  seq_estimate_ += std::max(seq_cpu_end, seq_gpu_end) + rep.transfer_out_s +
                   rep.phase4_s;
}

// Feed the tuner: only clean requests observe. A faulted, degraded or
// cancelled request's timings measure the fault plan, not the plan quality,
// and would poison the variant table.
void SpgemmService::Drain::feed_tuner(Request& r) {
  const RequestReport& rr = r.rr;
  const RunReport& rep = rr.run;
  if (!r.tunable || r.tuned_t <= 0 || r.cancelled || r.degraded ||
      rr.faults.total_faults() > 0) {
    return;
  }
  // What the threshold choice actually controls: compute + merge + output
  // shipment. Queue wait and input transfer are workload state.
  const double measured =
      rep.phase2_s + rep.phase3_s + rep.phase4_s + rep.transfer_out_s;
  s_.metrics_.counter("tune.measurements").inc();
  if (const auto promo = s_.tuner_.observe(r.cache_key, r.tuned_t, measured)) {
    CachedPlan promoted;
    promoted.threshold_a = promo->to_t;
    promoted.threshold_b = promo->to_t;
    promoted.version = promo->version;
    promoted.measured_s = promo->to_best_s;
    s_.plan_cache_.insert(r.cache_key, promoted);
    s_.metrics_.counter("tune.promotions").inc();
    log_.instant(TraceCategory::kTune, "tune-promote", rr.finish_s);
  }
}

// Flight recorder + SLO feed: the record carries everything the replay
// harness needs to re-drive the request (signatures, arrival on the
// recorder's accumulated clock, deadline, pinned thresholds) and to judge
// the replay (outcome, chosen thresholds, stage totals).
void SpgemmService::Drain::record(Request& r) {
  const RequestReport& rr = r.rr;
  if (WorkloadRecorder* recorder = s_.config_.recorder) {
    recorder->append(workload_record(r.req, rr, s_.signature_of(&r.a),
                                     s_.signature_of(&r.b), recorder->clock()));
  }
  if (s_.config_.slo != nullptr) {
    s_.config_.slo->observe(rr.latency_s, rr.status.ok(), rr.deadline_missed,
                            rr.finish_s);
  }
}

// This request no longer needs its operands. With keep_inputs_resident ==
// false the last user's finish evicts the device copy — mid-wave, when an
// operand's users all sit early in the wave.
void SpgemmService::Drain::release_operands(const Request& r) {
  for (const CsrMatrix* m : operands_of(r.req)) {
    if (m == nullptr) continue;
    const auto rit = s_.residency_.find(s_.content_key(m));
    if (rit == s_.residency_.end()) continue;
    if (--rit->second <= 0 && !s_.config_.keep_inputs_resident) {
      s_.residency_.erase(rit);
      wstats_.evictions++;
      log_.instant(TraceCategory::kWave, "wave-evict", r.rr.finish_s);
    }
  }
}

// ---- Batch epilogue.

void SpgemmService::Drain::finish_batch() {
  BatchReport& batch = out_.batch;
  batch.requests = out_.requests.size();
  batch.makespan_s = makespan_;
  batch.sequential_estimate_s = seq_estimate_;
  batch.p50_latency_s = percentile(latencies_, 0.50);
  batch.p95_latency_s = percentile(latencies_, 0.95);
  batch.p99_latency_s = percentile(latencies_, 0.99);
  batch.cpu_busy_s = cpu_.busy();
  batch.gpu_busy_s = gpu_.busy();
  batch.h2d_busy_s = h2d_.busy();
  batch.d2h_busy_s = d2h_.busy();
  batch.plan_cache = s_.plan_cache_.stats();
  batch.backoff_jitter = rp_.decorrelated_jitter;
  batch.wave_enabled = s_.config_.wave.enabled;
  batch.wave = wstats_;
  MetricsRegistry& m = s_.metrics_;
  m.counter("wave.waves").inc(wstats_.waves);
  m.counter("wave.requests").inc(wstats_.wave_requests);
  m.counter("wave.uploads").inc(wstats_.uploads);
  m.counter("wave.deduped_uploads").inc(wstats_.deduped_uploads);
  m.counter("wave.coalesced_uploads").inc(wstats_.coalesced_uploads);
  m.counter("wave.batched_launches").inc(wstats_.batched_launches);
  m.counter("wave.evictions").inc(wstats_.evictions);
  m.counter("wave.h2d_bytes").inc(wstats_.h2d_bytes);
  profile_critical_path(batch);

  const std::int64_t shed_total = m.counter("service.shed").value();
  batch.shed = static_cast<std::size_t>(shed_total - s_.shed_at_last_drain_);
  s_.shed_at_last_drain_ = shed_total;
  for (RequestReport& r : out_.requests) {
    batch.faults.accumulate(r.faults);
    if (r.status.ok()) batch.completed++;
    if (r.degraded_to_cpu) batch.degraded++;
    if (r.deadline_missed) batch.deadline_missed++;
    r.flame = flame_row(r.spans, 0, makespan_);
  }
  publish_metrics(batch);
  batch.flame = flame_view(events_from(log_begin_));

  // Close the drain: the recorder's clock absorbs this drain's makespan so
  // the next drain's records arrive later on the accumulated clock.
  if (s_.config_.recorder != nullptr) {
    s_.config_.recorder->advance_clock(batch.makespan_s);
  }
}

// Critical-path profile (obs/critpath.hpp): attribute the makespan.
void SpgemmService::Drain::profile_critical_path(BatchReport& batch) {
  const std::span<const TraceEvent> events = events_from(log_begin_);
  // Invariant: the log is attribution-complete — per resource, the summed
  // span durations equal the timeline's busy time (both only ever grow by
  // positive-duration reservations).
  const double busy[kResourceCount] = {cpu_.busy(), gpu_.busy(), h2d_.busy(),
                                       d2h_.busy()};
  double attributed[kResourceCount] = {0, 0, 0, 0};
  for (const TraceEvent& e : events) {
    if (e.kind != TraceEventKind::kSpan) continue;
    attributed[static_cast<int>(e.resource)] += e.end_s - e.start_s;
  }
  for (int r = 0; r < kResourceCount; ++r) {
    HH_CHECK_MSG(std::abs(attributed[r] - busy[r]) <=
                     1e-9 * std::max(1.0, busy[r]),
                 "event log does not cover the timeline's busy time");
  }
  std::vector<CritPathRequestInfo> infos;
  infos.reserve(out_.requests.size());
  for (std::size_t i = 0; i < out_.requests.size(); ++i) {
    const RequestReport& r = out_.requests[i];
    CritPathRequestInfo info;
    info.request_id = r.request_id;
    info.label = r.label;
    info.wave = wave_of_[i];
    info.queue_wait_s = r.queue_wait_s;
    info.latency_s = r.latency_s;
    info.backoff_s = r.faults.backoff_s;
    infos.push_back(std::move(info));
  }
  batch.critpath = compute_critical_path(events, makespan_, infos);
  const CritPathReport& cp = batch.critpath;
  MetricsRegistry& m = s_.metrics_;
  const double denom = std::max(cp.makespan_s, 1e-300);
  for (int r = 0; r < kResourceCount; ++r) {
    const std::string lane = std::string("critpath.") + crit_lane_name(r);
    double queueing = 0;
    Histogram& qd =
        m.histogram(std::string("critpath.queue_delay_s.") + crit_lane_name(r),
                    latency_buckets_s());
    for (const TraceEvent& e : events) {
      if (e.kind != TraceEventKind::kSpan) continue;
      if (static_cast<int>(e.resource) != r) continue;
      const double delay = std::max(0.0, e.start_s - e.requested_s);
      queueing += delay;
      qd.observe(delay);
    }
    m.gauge(lane + ".busy_frac")
        .set(cp.makespan_s > 0 ? busy[r] / denom : 0.0);
    m.gauge(lane + ".blocked_frac")
        .set(cp.makespan_s > 0 ? queueing / denom : 0.0);
    m.gauge(lane + ".idle_frac")
        .set(cp.makespan_s > 0 ? 1.0 - busy[r] / denom : 0.0);
    m.gauge(lane + ".crit_s").set(cp.attributed_s[r]);
  }
  m.gauge("critpath.idle.crit_s").set(cp.attributed_s[kIdleLane]);
  m.gauge("critpath.bottleneck")
      .set(static_cast<double>(cp.bottleneck_lane()));
  // One instant per chain step (this invalidates `events`); the Perfetto
  // exporter links them with flow arrows so the critical chain reads as one
  // thread of causality.
  for (const CritPathStep& s : cp.steps) {
    if (s.lane < kResourceCount) {
      log_.instant_on(TraceCategory::kCritPath, "crit-step",
                      static_cast<Resource>(s.lane), s.start_s);
    } else {
      log_.instant(TraceCategory::kCritPath, "crit-idle", s.start_s);
    }
  }
}

// Lifetime-cumulative instruments: outcome and fault counters, the latency
// histogram, last-drain busy gauges, tuner gauges.
void SpgemmService::Drain::publish_metrics(BatchReport& batch) {
  MetricsRegistry& m = s_.metrics_;
  Histogram& latency_hist =
      m.histogram("service.latency_s", latency_buckets_s());
  for (const RequestReport& r : out_.requests) {
    m.counter("service.requests").inc();
    if (!r.deadline_missed) latency_hist.observe(r.latency_s);
  }
  m.counter("service.completed")
      .inc(static_cast<std::int64_t>(batch.completed));
  m.counter("service.degraded").inc(static_cast<std::int64_t>(batch.degraded));
  m.counter("service.deadline_missed")
      .inc(static_cast<std::int64_t>(batch.deadline_missed));
  m.counter("service.faults.gpu_aborts").inc(batch.faults.gpu_aborts);
  m.counter("service.faults.h2d").inc(batch.faults.h2d_faults);
  m.counter("service.faults.d2h").inc(batch.faults.d2h_faults);
  m.counter("service.faults.corruptions").inc(batch.faults.corruptions);
  m.counter("service.faults.cpu_stalls").inc(batch.faults.cpu_stalls);
  m.counter("service.retries").inc(batch.faults.retries);
  m.gauge("service.makespan_s").set(batch.makespan_s);
  m.gauge("service.cpu_busy_s").set(batch.cpu_busy_s);
  m.gauge("service.gpu_busy_s").set(batch.gpu_busy_s);
  m.gauge("service.h2d_busy_s").set(batch.h2d_busy_s);
  m.gauge("service.d2h_busy_s").set(batch.d2h_busy_s);
  if (s_.config_.tune.enabled) {
    m.gauge("tune.entries").set(static_cast<double>(s_.tuner_.entries()));
    m.gauge("tune.converged").set(static_cast<double>(s_.tuner_.converged()));
  }
}

}  // namespace hh
