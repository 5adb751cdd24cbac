// CalibrationStore: measured-feedback calibration of the device cost models.
//
// Every completed, fault-free request yields four (predicted, observed)
// stage pairs — CPU compute, GPU compute, H2D occupancy, D2H occupancy —
// where the prediction comes from predict_breakdown() (core/threshold.hpp,
// symbolic estimates through the cost models) and the observation is the
// exact per-stage simulated time the runtime charged. The store maintains a
// per-device exponentially-weighted mean of log(observed/predicted):
//  - correction(): e^mean, clamped — the multiplicative factor that maps the
//    model's prediction onto what the runtime actually measures. Fed back
//    into predict_breakdown() via CostCorrection (device/cost_model.hpp) so
//    analytic picks and explore rankings learn from measurements.
//  - drift flagging: once a device has kMinSamples samples and its mean
//    log-ratio leaves the kDriftThreshold band, the model is declared
//    drifted; the transition is an observable event (tune.drift_events,
//    trace instant).
//
// Everything here is pure deterministic arithmetic on the simulated clock:
// same request stream → same corrections, bit for bit.
#pragma once

#include <array>
#include <cstdint>

#include "device/cost_model.hpp"

namespace hh {

/// The calibration store's complete state: the live store runs on it, a
/// shard snapshot (src/shard/snapshot.hpp) copies it, and TuneReport renders
/// it. Restoring a snapshot reproduces corrections() bit for bit.
struct CalibrationSnapshot {
  struct DeviceState {
    std::int64_t samples = 0;
    double mean_log_ratio = 0;  // EWMA of log(observed/predicted)
    double last_ratio = 1.0;    // most recent raw observed/predicted
    bool drift = false;         // currently outside the drift band
  };
  std::array<DeviceState, 4> devices;  // indexed by CalibrationStore::Device
  std::int64_t drift_events = 0;
};

class CalibrationStore {
 public:
  enum class Device { kCpu = 0, kGpu = 1, kH2D = 2, kD2H = 3 };
  static constexpr int kDevices = 4;

  // The model's fixed numbers (docs/tuning.md).
  static constexpr double kDecay = 0.9;  // weight of history in the EWMA
  static constexpr int kMinSamples = 8;  // before corrections and drift apply
  static constexpr double kDriftThreshold = 0.25;  // |mean log ratio| band
  static constexpr double kMaxCorrection = 4.0;    // clamp to [1/max, max]

  /// Ingest one stage measurement. Pairs with a non-positive side are
  /// ignored (e.g. a resident operand observes zero H2D time — that is
  /// residency, not model error). Returns true when this sample newly
  /// flagged the device as drifted (a false→true transition).
  bool record(Device d, double predicted_s, double observed_s);

  const CalibrationSnapshot::DeviceState& state(Device d) const {
    return state_.devices[static_cast<int>(d)];
  }

  /// e^mean_log_ratio clamped to [1/kMaxCorrection, kMaxCorrection]; exactly
  /// 1.0 until the device has kMinSamples samples, so an uncalibrated store
  /// is the identity correction.
  static double correction(const CalibrationSnapshot::DeviceState& s);
  double correction(Device d) const { return correction(state(d)); }

  CostCorrection corrections() const {
    return {correction(Device::kCpu), correction(Device::kGpu),
            correction(Device::kH2D), correction(Device::kD2H)};
  }

  std::int64_t drift_events() const { return state_.drift_events; }

  static const char* name(Device d);

  const CalibrationSnapshot& snapshot() const { return state_; }
  void restore(const CalibrationSnapshot& snap) { state_ = snap; }

 private:
  CalibrationSnapshot state_;
};

}  // namespace hh
