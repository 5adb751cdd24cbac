// Waves: how SpgemmService::drain() cuts its queue, and what it counts.
//
// Every drained request runs inside a wave (docs/runtime.md). A wave groups
// consecutive requests that share an operand — by content, not pointer
// identity — so that under repeated-operand traffic (the dominant pattern
// the shard ring's signature affinity creates) the service does not pay
// redundant PCIe traffic and per-request kernel-launch overhead:
//   - each distinct operand is uploaded once per wave and held under a
//     refcount until its last user finishes (cross-request residency dedup
//     with refcounted eviction);
//   - the wave's uploads coalesce into one contiguous H2D block
//     (ResourceTimeline::block_start): the link latency is paid by the lead
//     transfer only (PcieChannel::transfer_time_batched);
//   - same-wave Phase II GPU kernels are batched: the first healthy launch
//     pays the kernel-launch overhead, followers skip it
//     (GpuSim::kernel_time_batched).
// Output bits never change: numeric work still executes host-side with the
// same decomposition, so every request stays bit-identical to the serial
// reference. With `enabled == false` every wave holds one request, which is
// the plain per-request pipeline.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace hh {

/// Wave shape. Multi-request waves are off by default.
struct WaveConfig {
  bool enabled = false;  // false = one request per wave (caps below unused)
  // Requests per wave; the cap is strict.
  static constexpr std::size_t kMaxRequests = 16;
  // Distinct operands (by content) per wave: bounds the device
  // memory a wave pins. A request whose operands are all already in the
  // wave adds no pressure and joins past this cap.
  static constexpr std::size_t kMaxOperands = 8;
};

/// Per-drain wave accounting, reported in BatchReport (and aggregated per
/// shard).
struct WaveStats {
  std::int64_t waves = 0;
  std::int64_t wave_requests = 0;      // requests executed through waves
  std::int64_t uploads = 0;            // distinct-operand uploads performed
  std::int64_t deduped_uploads = 0;    // same-wave uses served by dedup
  std::int64_t coalesced_uploads = 0;  // uploads riding a shared reservation
                                       // behind the lead (latency skipped)
  std::int64_t batched_launches = 0;   // GPU launches that skipped overhead
  std::int64_t evictions = 0;          // refcount-zero residency evictions
  std::int64_t h2d_bytes = 0;          // payload bytes of successful uploads

  void accumulate(const WaveStats& o);
  std::string to_json() const;
  /// "W over R requests; U uploads (...), L batched launches, E evictions".
  std::string to_string() const;
};

/// Half-open request-index range [begin, end) of one wave, in submit order.
struct WaveBounds {
  std::size_t begin = 0;
  std::size_t end = 0;
};

/// Deterministic wave formation over the drain queue, in submit order.
/// `operand_ids[i]` are request i's operands as dense ids (two entries; a
/// self product repeats the same id). A request joins the current wave when
/// the wave is empty, or when it fits the request cap and either introduces
/// no new operand or keeps the distinct-operand count within the operand
/// cap; otherwise it starts a new wave. Every request lands in exactly one
/// wave and waves partition [0, n) contiguously.
std::vector<WaveBounds> form_waves(
    const std::vector<std::array<std::uint32_t, 2>>& operand_ids,
    std::size_t max_requests, std::size_t max_operands);

}  // namespace hh
