#include "device/pcie.hpp"

namespace hh {

double PcieChannel::transfer_time(double bytes) const {
  if (bytes <= 0) return 0.0;
  return cm_.latency_s + bytes / (cm_.bw_gbps * 1e9 * cm_.efficiency);
}

double PcieChannel::matrix_transfer_time(const CsrMatrix& m) const {
  return transfer_time(static_cast<double>(m.byte_size()));
}

double PcieChannel::operands_transfer_time(const CsrMatrix& a,
                                           const CsrMatrix& b) const {
  double s = matrix_transfer_time(a);
  if (&a != &b) s += matrix_transfer_time(b);
  return s;
}

double PcieChannel::tuple_transfer_time(std::int64_t n) const {
  return transfer_time(16.0 * static_cast<double>(n));
}

double PcieChannel::transfer_time_batched(double bytes, bool lead) const {
  if (bytes <= 0) return 0.0;
  const double stream = bytes / (cm_.bw_gbps * 1e9 * cm_.efficiency);
  return lead ? cm_.latency_s + stream : stream;
}

DeviceAttempt PcieChannel::transfer_attempt(double bytes, FaultInjector* fi,
                                            bool lead) const {
  const double t = transfer_time_batched(bytes, lead);
  if (t <= 0) return {true, false, 0, kNoDeviceOp};
  if (fi != nullptr) {
    const FaultDecision d =
        fi->next(dir_ == PcieDir::kH2D ? FaultSite::kH2D : FaultSite::kD2H);
    if (d.fault) {
      // Corruption spends the full transfer time (the bytes all crossed,
      // just wrong); a hard failure dies partway through but no earlier
      // than the link latency.
      const double elapsed =
          d.corrupt ? t : std::max(cm_.latency_s, d.fraction * t);
      return {false, d.corrupt, elapsed, d.op};
    }
    return {true, false, t, d.op};
  }
  return {true, false, t, kNoDeviceOp};
}

DeviceAttempt PcieChannel::matrix_transfer_attempt(const CsrMatrix& m,
                                                   FaultInjector* fi,
                                                   bool lead) const {
  return transfer_attempt(static_cast<double>(m.byte_size()), fi, lead);
}

DeviceAttempt PcieChannel::tuple_transfer_attempt(std::int64_t n,
                                                  FaultInjector* fi) const {
  return transfer_attempt(16.0 * static_cast<double>(n), fi);
}

}  // namespace hh
