#include "obs/perf_baseline.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "runtime/service.hpp"
#include "util/format.hpp"
#include "util/status.hpp"

namespace hh {

namespace {

std::string jpct(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%+.2f%%", v * 100.0);
  return buf;
}

// ---- Minimal JSON reader for the flat baseline format. Only what the
// format uses: objects, arrays, strings without escapes, numbers, bools.
class JsonCursor {
 public:
  explicit JsonCursor(const std::string& text) : s_(text) {}

  void skip_ws() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }

  bool at(char c) {
    skip_ws();
    return pos_ < s_.size() && s_[pos_] == c;
  }

  void expect(char c) {
    skip_ws();
    if (pos_ >= s_.size() || s_[pos_] != c) {
      std::ostringstream os;
      os << "baseline JSON: expected '" << c << "' at offset " << pos_;
      throw ParseError(os.str());
    }
    ++pos_;
  }

  bool consume(char c) {
    if (!at(c)) return false;
    ++pos_;
    return true;
  }

  std::string string() {
    expect('"');
    const std::size_t begin = pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        throw ParseError("baseline JSON: escape sequences are not supported");
      }
      ++pos_;
    }
    if (pos_ >= s_.size()) throw ParseError("baseline JSON: unterminated string");
    return s_.substr(begin, pos_++ - begin);
  }

  double number() {
    skip_ws();
    const char* start = s_.c_str() + pos_;
    char* end = nullptr;
    const double v = std::strtod(start, &end);
    if (end == start) {
      std::ostringstream os;
      os << "baseline JSON: expected a number at offset " << pos_;
      throw ParseError(os.str());
    }
    pos_ += static_cast<std::size_t>(end - start);
    return v;
  }

  // Skip any well-formed value (for unknown keys: forward compatibility).
  void skip_value() {
    skip_ws();
    if (at('"')) {
      string();
    } else if (consume('{')) {
      if (!consume('}')) {
        do {
          string();
          expect(':');
          skip_value();
        } while (consume(','));
        expect('}');
      }
    } else if (consume('[')) {
      if (!consume(']')) {
        do {
          skip_value();
        } while (consume(','));
        expect(']');
      }
    } else if (literal("true") || literal("false") || literal("null")) {
    } else {
      number();
    }
  }

  bool done() {
    skip_ws();
    return pos_ >= s_.size();
  }

 private:
  bool literal(const char* lit) {
    skip_ws();
    const std::size_t n = std::char_traits<char>::length(lit);
    if (s_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

int lane_index(const std::string& name) {
  for (int i = 0; i < kCritLaneCount; ++i) {
    if (name == crit_lane_name(i)) return i;
  }
  return -1;
}

PerfBaseline parse_record(JsonCursor& c) {
  PerfBaseline b;
  c.expect('{');
  if (!c.consume('}')) {
    do {
      const std::string key = c.string();
      c.expect(':');
      if (key == "bench") {
        b.bench = c.string();
      } else if (key == "scale") {
        b.scale = c.number();
      } else if (key == "requests") {
        b.requests = static_cast<std::int64_t>(c.number());
      } else if (key == "makespan_s") {
        b.makespan_s = c.number();
      } else if (key == "p50_latency_s") {
        b.p50_latency_s = c.number();
      } else if (key == "p95_latency_s") {
        b.p95_latency_s = c.number();
      } else if (key == "p99_latency_s") {
        b.p99_latency_s = c.number();
      } else if (key == "attributed_s") {
        c.expect('{');
        if (!c.consume('}')) {
          do {
            const std::string lane = c.string();
            c.expect(':');
            const double v = c.number();
            const int idx = lane_index(lane);
            if (idx < 0) {
              throw ParseError("baseline JSON: unknown lane \"" + lane + "\"");
            }
            b.attributed_s[idx] = v;
          } while (c.consume(','));
          c.expect('}');
        }
      } else {
        c.skip_value();
      }
    } while (c.consume(','));
    c.expect('}');
  }
  if (b.bench.empty()) {
    throw ParseError("baseline JSON: record is missing \"bench\"");
  }
  return b;
}

}  // namespace

std::string PerfBaseline::to_json() const {
  std::ostringstream os;
  os << "{\"bench\":\"" << bench << "\",\"scale\":" << fmt_exact(scale)
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
  JsonCursor c(text);
  std::vector<PerfBaseline> out;
  if (c.at('[')) {
    c.expect('[');
    if (!c.consume(']')) {
      do {
        out.push_back(parse_record(c));
      } while (c.consume(','));
      c.expect(']');
    }
  } else {
    out.push_back(parse_record(c));
  }
  if (!c.done()) {
    throw ParseError("baseline JSON: trailing content after the record set");
  }
  return out;
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
      os << (i ? "," : "") << "\"" << v[i] << "\"";
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
                                const std::vector<PerfBaseline>& fresh,
                                const PerfCompareOptions& opts) {
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
        {"makespan_s", old.makespan_s, cur->makespan_s, opts.makespan_rel_tol},
        {"p95_latency_s", old.p95_latency_s, cur->p95_latency_s,
         opts.latency_rel_tol},
        {"p99_latency_s", old.p99_latency_s, cur->p99_latency_s,
         opts.latency_rel_tol},
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
      if (std::abs(now_frac - was_frac) > opts.attribution_abs_tol) {
        std::ostringstream os;
        os << old.bench << ": critpath share of " << crit_lane_name(lane)
           << " shifted " << jpct(was_frac) << " -> " << jpct(now_frac)
           << " (band +/-" << jpct(opts.attribution_abs_tol) << ")";
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
