#include "tune/calibration.hpp"

#include <cmath>

namespace hh {

bool CalibrationStore::record(Device d, double predicted_s,
                              double observed_s) {
  if (predicted_s <= 0 || observed_s <= 0) return false;
  CalibrationSnapshot::DeviceState& s = state_.devices[static_cast<int>(d)];
  const double log_ratio = std::log(observed_s / predicted_s);
  s.last_ratio = observed_s / predicted_s;
  // EWMA warm-started on the first sample so early corrections are not
  // diluted toward the 0-initialised mean.
  s.mean_log_ratio = s.samples == 0
                         ? log_ratio
                         : kDecay * s.mean_log_ratio +
                               (1.0 - kDecay) * log_ratio;
  s.samples++;
  const bool was_drifted = s.drift;
  s.drift = s.samples >= kMinSamples &&
            std::abs(s.mean_log_ratio) > kDriftThreshold;
  if (s.drift && !was_drifted) {
    state_.drift_events++;
    return true;
  }
  return false;
}

double CalibrationStore::correction(
    const CalibrationSnapshot::DeviceState& s) {
  if (s.samples < kMinSamples) return 1.0;
  const double f = std::exp(s.mean_log_ratio);
  constexpr double hi = kMaxCorrection;
  constexpr double lo = 1.0 / kMaxCorrection;
  return f > hi ? hi : (f < lo ? lo : f);
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

}  // namespace hh
