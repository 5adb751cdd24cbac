// PCIe 2.0 ×16 link between host and device (paper §II-B: 8 GB/s nominal;
// §IV-A: ~25–30 ms to ship a ~5 M-nnz matrix).
//
// PCIe is full duplex: the host→device (H2D) and device→host (D2H)
// directions are independent lanes that can stream concurrently. The link is
// therefore modelled as two separately-clocked PcieChannel objects; the
// pipelined runtime (src/runtime/) schedules them on two distinct resource
// timelines so one request's input upload can overlap another's result
// download. The sequential driver keeps charging each transfer on the
// channel that direction uses — same per-transfer times as the seed model.
#pragma once

#include <cstdint>

#include "device/cost_model.hpp"
#include "fault/fault.hpp"
#include "sparse/csr.hpp"

namespace hh {

enum class PcieDir { kH2D, kD2H };

/// One direction of the link: latency + bandwidth + efficiency.
class PcieChannel {
 public:
  explicit PcieChannel(const PcieCostModel& cm, PcieDir dir = PcieDir::kH2D)
      : cm_(cm), dir_(dir) {}

  double transfer_time(double bytes) const;

  /// Shipping a CSR matrix (indptr + indices + values).
  double matrix_transfer_time(const CsrMatrix& m) const;

  /// Shipping a product's operands: A, and B too unless B is A.
  double operands_transfer_time(const CsrMatrix& a, const CsrMatrix& b) const;

  /// Shipping n tuples of ⟨r, c, v⟩ (4 + 4 + 8 bytes).
  double tuple_transfer_time(std::int64_t n) const;

  /// Batched (wave-coalesced) costing: the lead transfer of a block pays
  /// the link latency that opens the shared reservation; followers stream
  /// back-to-back behind it and pay bytes only. `lead == true` is exactly
  /// transfer_time.
  double transfer_time_batched(double bytes, bool lead) const;

  /// Fault-aware variants: one transfer attempt under the injector's
  /// schedule (pass nullptr for a guaranteed-healthy attempt), costed as
  /// transfer_time_batched(bytes, lead) — the default is a standalone
  /// transfer. A hard failure aborts partway through and wastes
  /// `elapsed_s`, never less than the link latency (a retry re-arbitrates
  /// the link); a corruption runs to completion but the payload fails
  /// checksum verification — the caller must re-send.
  DeviceAttempt transfer_attempt(double bytes, FaultInjector* fi,
                                 bool lead = true) const;
  DeviceAttempt matrix_transfer_attempt(const CsrMatrix& m, FaultInjector* fi,
                                        bool lead = true) const;
  DeviceAttempt tuple_transfer_attempt(std::int64_t n, FaultInjector* fi) const;

  PcieDir direction() const { return dir_; }
  const PcieCostModel& model() const { return cm_; }

 private:
  PcieCostModel cm_;
  PcieDir dir_;
};

/// The full-duplex link: an H2D channel and a D2H channel with independent
/// clocks. Both directions share the PcieCostModel parameters (PCIe lanes
/// are symmetric).
class PcieLink {
 public:
  explicit PcieLink(const PcieCostModel& cm)
      : h2d_(cm, PcieDir::kH2D), d2h_(cm, PcieDir::kD2H) {}

  const PcieChannel& h2d() const { return h2d_; }
  const PcieChannel& d2h() const { return d2h_; }

  /// An upload's time, for callers that charge it without scheduling it on
  /// a channel timeline (the transfer-model bench): h2d().
  double matrix_transfer_time(const CsrMatrix& m) const {
    return h2d_.matrix_transfer_time(m);
  }

  const PcieCostModel& model() const { return h2d_.model(); }

 private:
  PcieChannel h2d_;
  PcieChannel d2h_;
};

}  // namespace hh
