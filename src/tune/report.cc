#include "tune/report.hpp"

#include <cmath>
#include <cstdio>
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

const char* device_name(int i) {
  return CalibrationStore::name(static_cast<CalibrationStore::Device>(i));
}

}  // namespace

std::string TuneReport::to_string() const {
  std::ostringstream os;
  if (!enabled) return "tuning: disabled\n";
  os << "tuning: " << tuner.decisions << " decisions, " << tuner.explorations
     << " explorations, " << tuner.promotions << " promotions, "
     << tuner.measurements << " measurements; " << converged(tuner) << "/"
     << tuner.entries.size() << " signatures converged\n";
  os << "  calibration:";
  for (int i = 0; i < CalibrationStore::kDevices; ++i) {
    const CalibrationSnapshot::DeviceState& c = calibration.devices[i];
    char buf[96];
    std::snprintf(buf, sizeof(buf), " %s x%.3f (%lld)%s", device_name(i),
                  CalibrationStore::correction(c),
                  static_cast<long long>(c.samples), c.drift ? " DRIFT" : "");
    os << buf;
  }
  os << "\n";
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
     << ",\"drift_events\":" << calibration.drift_events
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
  os << "],\"calibration\":{";
  for (int i = 0; i < CalibrationStore::kDevices; ++i) {
    const CalibrationSnapshot::DeviceState& c = calibration.devices[i];
    if (i > 0) os << ",";
    os << "\"" << device_name(i) << "\":{\"samples\":" << c.samples
       << ",\"ratio\":" << fmt_exact(std::exp(c.mean_log_ratio))
       << ",\"correction\":" << fmt_exact(CalibrationStore::correction(c))
       << ",\"drift\":" << fmt_bool(c.drift) << "}";
  }
  os << "}}";
  return os.str();
}

}  // namespace hh
