#include "tune/report.hpp"

#include <sstream>

#include "runtime/signature.hpp"
#include "util/format.hpp"

namespace hh {
namespace {

std::string key_string(const PlanKey& key) {
  return to_string(key.a) + " x " + to_string(key.b);
}

// A variant's best measured total; 0 before its first trial.
double best_s(const TunerSnapshot::Variant& v) {
  return v.trials > 0 ? v.best_s : 0.0;
}

std::size_t converged(const TunerSnapshot& t) {
  std::size_t n = 0;
  for (const TunerSnapshot::Entry& e : t.entries) n += e.converged ? 1 : 0;
  return n;
}

}  // namespace

std::string TuneReport::to_string() const {
  std::ostringstream os;
  if (!enabled) return "tuning: disabled\n";
  os << "tuning: " << tuner.decisions << " decisions, " << tuner.explorations
     << " explorations, " << tuner.promotions << " promotions, "
     << tuner.measurements << " measurements; " << converged(tuner) << "/"
     << tuner.entries.size() << " signatures converged\n";
  for (const TunerSnapshot::Entry& e : tuner.entries) {
    os << "  " << key_string(e.key) << ": t " << e.analytic_t
       << " (analytic) -> " << e.incumbent_t << " v" << e.version << ", "
       << e.hits << " hits, " << e.explorations << " explored, "
       << e.promotions << " promoted" << (e.converged ? ", converged" : "")
       << "\n";
    for (const TunerSnapshot::Variant& v : e.variants) {
      os << "    t=" << v.t << ": best " << fmt_ms(best_s(v)) << " over "
         << v.trials << " trial(s), predicted " << fmt_ms(v.predicted_s)
         << (v.t == e.incumbent_t ? "  <- incumbent" : "") << "\n";
    }
  }
  return os.str();
}

std::string TuneReport::to_json() const {
  std::ostringstream os;
  os << "{\"enabled\":" << fmt_bool(enabled)
     << ",\"decisions\":" << tuner.decisions
     << ",\"explorations\":" << tuner.explorations
     << ",\"measurements\":" << tuner.measurements
     << ",\"promotions\":" << tuner.promotions
     << ",\"entries_converged\":" << converged(tuner) << ",\"entries\":[";
  for (std::size_t i = 0; i < tuner.entries.size(); ++i) {
    const TunerSnapshot::Entry& e = tuner.entries[i];
    if (i > 0) os << ",";
    os << "{\"key\":" << fmt_json_str(key_string(e.key))
       << ",\"analytic_t\":" << e.analytic_t
       << ",\"incumbent_t\":" << e.incumbent_t << ",\"version\":" << e.version
       << ",\"hits\":" << e.hits << ",\"explorations\":" << e.explorations
       << ",\"promotions\":" << e.promotions
       << ",\"converged\":" << fmt_bool(e.converged) << ",\"variants\":[";
    for (std::size_t k = 0; k < e.variants.size(); ++k) {
      const TunerSnapshot::Variant& v = e.variants[k];
      if (k > 0) os << ",";
      os << "{\"t\":" << v.t << ",\"trials\":" << v.trials
         << ",\"best_s\":" << fmt_exact(best_s(v))
         << ",\"predicted_s\":" << fmt_exact(v.predicted_s) << "}";
    }
    os << "]}";
  }
  os << "]}";
  return os.str();
}

}  // namespace hh
