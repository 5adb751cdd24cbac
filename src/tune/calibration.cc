#include "tune/calibration.hpp"

#include <cmath>
#include <sstream>

#include "util/format.hpp"

namespace hh {

bool CalibrationStore::record(Device d, double predicted_s,
                              double observed_s) {
  if (predicted_s <= 0 || observed_s <= 0) return false;
  DeviceState& s = state_[static_cast<int>(d)];
  const double log_ratio = std::log(observed_s / predicted_s);
  s.last_ratio = observed_s / predicted_s;
  // EWMA warm-started on the first sample so early corrections are not
  // diluted toward the 0-initialised mean.
  s.mean_log_ratio = s.samples == 0
                         ? log_ratio
                         : config_.decay * s.mean_log_ratio +
                               (1.0 - config_.decay) * log_ratio;
  s.samples++;
  const bool was_drifted = s.drift;
  s.drift = s.samples >= config_.min_samples &&
            std::abs(s.mean_log_ratio) > config_.drift_threshold;
  if (s.drift && !was_drifted) {
    drift_events_++;
    return true;
  }
  return false;
}

double CalibrationStore::correction(Device d) const {
  const DeviceState& s = state_[static_cast<int>(d)];
  if (s.samples < config_.min_samples) return 1.0;
  const double f = std::exp(s.mean_log_ratio);
  const double hi = config_.max_correction;
  const double lo = 1.0 / config_.max_correction;
  return f > hi ? hi : (f < lo ? lo : f);
}

std::int64_t CalibrationStore::total_samples() const {
  std::int64_t n = 0;
  for (const DeviceState& s : state_) n += s.samples;
  return n;
}

int CalibrationStore::drift_count() const {
  int n = 0;
  for (const DeviceState& s : state_) n += s.drift ? 1 : 0;
  return n;
}

const char* CalibrationStore::name(Device d) {
  switch (d) {
    case Device::kCpu: return "cpu";
    case Device::kGpu: return "gpu";
    case Device::kH2D: return "h2d";
    case Device::kD2H: return "d2h";
  }
  return "?";
}

CalibrationSnapshot CalibrationStore::snapshot() const {
  CalibrationSnapshot snap;
  for (int i = 0; i < kDevices; ++i) {
    snap.devices[i] = {state_[i].samples, state_[i].mean_log_ratio,
                       state_[i].last_ratio, state_[i].drift};
  }
  snap.drift_events = drift_events_;
  return snap;
}

void CalibrationStore::restore(const CalibrationSnapshot& snap) {
  for (int i = 0; i < kDevices; ++i) {
    state_[i] = {snap.devices[i].samples, snap.devices[i].mean_log_ratio,
                 snap.devices[i].last_ratio, snap.devices[i].drift};
  }
  drift_events_ = snap.drift_events;
}

std::string CalibrationStore::to_json() const {
  std::ostringstream os;
  os << "{";
  for (int i = 0; i < kDevices; ++i) {
    const auto d = static_cast<Device>(i);
    const DeviceState& s = state_[i];
    if (i > 0) os << ",";
    os << "\"" << name(d) << "\":{\"samples\":" << s.samples
       << ",\"ratio\":" << fmt_exact(std::exp(s.mean_log_ratio))
       << ",\"correction\":" << fmt_exact(correction(d))
       << ",\"drift\":" << fmt_bool(s.drift) << "}";
  }
  os << ",\"drift_events\":" << drift_events_ << "}";
  return os.str();
}

}  // namespace hh
