#include "obs/perf_baseline.hpp"

#include <cmath>
#include <cstdio>
#include <sstream>
#include <utility>

#include "runtime/service.hpp"
#include "util/format.hpp"
#include "util/json.hpp"
#include "util/status.hpp"

namespace hh {

namespace {

std::string jpct(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%+.2f%%", v * 100.0);
  return buf;
}

int lane_index(const std::string& name) {
  for (int i = 0; i < kCritLaneCount; ++i) {
    if (name == crit_lane_name(i)) return i;
  }
  return -1;
}

// One record object. Only "bench" is required; unknown keys are skipped.
PerfBaseline parse_record(const JsonValue& j) {
  PerfBaseline b;
  b.bench = j.at("bench").as<std::string>();
  if (b.bench.empty()) throw ParseError("record has an empty \"bench\"");
  if (const JsonValue* v = j.find("requests")) {
    b.requests = v->as<std::int64_t>();
  }
  const std::pair<const char*, double*> doubles[] = {
      {"scale", &b.scale},
      {"makespan_s", &b.makespan_s},
      {"p50_latency_s", &b.p50_latency_s},
      {"p95_latency_s", &b.p95_latency_s},
      {"p99_latency_s", &b.p99_latency_s}};
  for (const auto& [key, field] : doubles) {
    if (const JsonValue* v = j.find(key)) *field = v->as<double>();
  }
  if (const JsonValue* lanes = j.find("attributed_s")) {
    if (lanes->type() != JsonValue::Type::kObject) {
      throw ParseError("key 'attributed_s' is not an object");
    }
    for (const JsonValue& lane : lanes->items()) {
      const int idx = lane_index(lane.key());
      if (idx < 0) throw ParseError("unknown lane \"" + lane.key() + "\"");
      b.attributed_s[idx] = lane.as<double>();
    }
  }
  return b;
}

}  // namespace

std::string PerfBaseline::to_json() const {
  std::ostringstream os;
  os << "{\"bench\":" << fmt_json_str(bench)
     << ",\"scale\":" << fmt_exact(scale)
     << ",\"requests\":" << requests
     << ",\"makespan_s\":" << fmt_exact(makespan_s)
     << ",\"p50_latency_s\":" << fmt_exact(p50_latency_s)
     << ",\"p95_latency_s\":" << fmt_exact(p95_latency_s)
     << ",\"p99_latency_s\":" << fmt_exact(p99_latency_s)
     << ",\"attributed_s\":{";
  for (int i = 0; i < kCritLaneCount; ++i) {
    os << (i ? "," : "") << "\"" << crit_lane_name(i)
       << "\":" << fmt_exact(attributed_s[i]);
  }
  os << "}}";
  return os.str();
}

PerfBaseline baseline_from_batch(const std::string& bench, double scale,
                                 const BatchReport& batch) {
  PerfBaseline b;
  b.bench = bench;
  b.scale = scale;
  b.requests = static_cast<std::int64_t>(batch.requests);
  b.makespan_s = batch.makespan_s;
  b.p50_latency_s = batch.p50_latency_s;
  b.p95_latency_s = batch.p95_latency_s;
  b.p99_latency_s = batch.p99_latency_s;
  for (int i = 0; i < kCritLaneCount; ++i) {
    b.attributed_s[i] = batch.critpath.attributed_s[i];
  }
  return b;
}

std::string render_perf_baselines(const std::vector<PerfBaseline>& baselines) {
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < baselines.size(); ++i) {
    os << (i ? ",\n " : "\n ") << baselines[i].to_json();
  }
  os << "\n]\n";
  return os.str();
}

std::vector<PerfBaseline> parse_perf_baselines(const std::string& text) {
  try {
    const JsonValue doc = parse_json(text);
    if (doc.type() != JsonValue::Type::kArray) return {parse_record(doc)};
    std::vector<PerfBaseline> out;
    for (const JsonValue& record : doc.items()) {
      out.push_back(parse_record(record));
    }
    return out;
  } catch (const ParseError& e) {
    throw ParseError(std::string("baseline JSON: ") + e.what());
  }
}

std::string PerfDiff::to_string() const {
  std::ostringstream os;
  os << (regressed ? "REGRESSED" : "OK") << " (" << findings.size()
     << " regressions, " << improvements.size() << " improvements)\n";
  for (const std::string& f : findings) os << "  REGRESSION: " << f << "\n";
  for (const std::string& f : improvements) os << "  improved: " << f << "\n";
  for (const std::string& f : notes) os << "  note: " << f << "\n";
  return os.str();
}

std::string PerfDiff::to_json() const {
  const auto arr = [](const std::vector<std::string>& v) {
    std::ostringstream os;
    os << "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      os << (i ? "," : "") << fmt_json_str(v[i]);
    }
    os << "]";
    return os.str();
  };
  std::ostringstream os;
  os << "{\"regressed\":" << fmt_bool(regressed)
     << ",\"findings\":" << arr(findings)
     << ",\"improvements\":" << arr(improvements) << ",\"notes\":" << arr(notes)
     << "}";
  return os.str();
}

PerfDiff compare_perf_baselines(const std::vector<PerfBaseline>& baseline,
                                const std::vector<PerfBaseline>& fresh) {
  PerfDiff d;
  const auto find = [&](const std::string& bench) -> const PerfBaseline* {
    for (const PerfBaseline& b : fresh) {
      if (b.bench == bench) return &b;
    }
    return nullptr;
  };
  const auto rel = [](double now, double was) {
    return was > 0 ? now / was - 1.0 : 0.0;
  };

  for (const PerfBaseline& old : baseline) {
    const PerfBaseline* cur = find(old.bench);
    if (cur == nullptr) {
      d.findings.push_back(old.bench + ": missing from the new run");
      continue;
    }
    if (cur->scale != old.scale || cur->requests != old.requests) {
      std::ostringstream os;
      os << old.bench << ": not comparable (scale " << old.scale << " -> "
         << cur->scale << ", requests " << old.requests << " -> "
         << cur->requests << ")";
      d.findings.push_back(os.str());
      continue;
    }
    const struct {
      const char* what;
      double was, now, tol;
    } bands[] = {
        {"makespan_s", old.makespan_s, cur->makespan_s, kMakespanRelTol},
        {"p95_latency_s", old.p95_latency_s, cur->p95_latency_s,
         kLatencyRelTol},
        {"p99_latency_s", old.p99_latency_s, cur->p99_latency_s,
         kLatencyRelTol},
    };
    for (const auto& band : bands) {
      const double delta = rel(band.now, band.was);
      std::ostringstream os;
      os << old.bench << ": " << band.what << " " << fmt_exact(band.was)
         << " -> " << fmt_exact(band.now) << " (" << jpct(delta) << ", band "
         << jpct(band.tol) << ")";
      if (delta > band.tol) {
        d.findings.push_back(os.str());
      } else if (delta < -band.tol) {
        d.improvements.push_back(os.str());
      }
    }
    // Attribution structure: each lane's share of the makespan must stay
    // within an absolute band. Catches "same makespan, but the bottleneck
    // migrated to the PCIe link" drifts the scalar bands cannot see.
    for (int lane = 0; lane < kCritLaneCount; ++lane) {
      const double was_frac =
          old.makespan_s > 0 ? old.attributed_s[lane] / old.makespan_s : 0;
      const double now_frac =
          cur->makespan_s > 0 ? cur->attributed_s[lane] / cur->makespan_s : 0;
      if (std::abs(now_frac - was_frac) > kAttributionAbsTol) {
        std::ostringstream os;
        os << old.bench << ": critpath share of " << crit_lane_name(lane)
           << " shifted " << jpct(was_frac) << " -> " << jpct(now_frac)
           << " (band +/-" << jpct(kAttributionAbsTol) << ")";
        d.findings.push_back(os.str());
      }
    }
  }
  for (const PerfBaseline& b : fresh) {
    bool known = false;
    for (const PerfBaseline& old : baseline) known |= old.bench == b.bench;
    if (!known) {
      d.notes.push_back(b.bench +
                        ": new bench (not in baseline; refresh to adopt)");
    }
  }
  d.regressed = !d.findings.empty();
  return d;
}

}  // namespace hh
