// The custom double-ended workqueue of paper §III-C / §IV-B.
//
// The CPU dequeues work-units from the front, the GPU from the back, so the
// two devices never contend on the same end and synchronization cost stays
// minimal. A work-unit is a contiguous run of A rows (cpuRows = 1000 on the
// CPU, gpuRows = 10000 on the GPU, the paper's empirically-best sizes)
// multiplied against a masked view of B. A device that drains its own side
// continues into the other side's rows (the paper's "can contribute to the
// product ... after finishing").
//
// A queue is an ordered list of parts, CPU end first: each part is a span
// of A rows (HH-CPU's A_L and A_H row lists, or a baseline's row order)
// against one masked view of B, with that product's CPU pricing shape. The
// queue is simulated event-wise: whichever device's clock is earlier
// dequeues next, and each unit's ProductStats, the sum of its rows' stats
// read in place from per-row tables indexed by A row, are charged on the
// owning device's model (schedule_workqueue, the one entry point). HH-CPU's
// cost_phase3 passes the symbolic per-row costs in place; the two workqueue
// baselines and the benchmark's staged Phase III store their product first
// and pass its per-row stats (product_row_stats), so what is stored does
// not depend on the schedule. The scheduler checks that every row lies in
// [0, a_rows).
#pragma once

#include <cstdint>
#include <span>

#include "device/platform.hpp"
#include "sparse/csr.hpp"
#include "spgemm/spgemm.hpp"

namespace hh {

/// A masked partial product: each row i in `rows` of A against the rows j
/// of B with b_mask[j] == b_mask_value (empty mask = all of B).
struct MaskedRows {
  std::span<const index_t> rows;
  std::span<const std::uint8_t> b_mask;
  bool b_mask_value = true;
};

/// One part of a queue: its A rows against its masked view of B, and how
/// the CPU prices that product.
struct QueuePart {
  MaskedRows product;
  double cpu_ws_bytes = 0;     // working set of the masked B side in bytes
  bool cpu_blockable = false;  // ×B_H products are column-blockable on the
                               // CPU (see CpuSim::kernel_time)
};

struct WorkQueueConfig {
  // Paper §IV-B uses cpuRows = 1000 and gpuRows = 10000 against full-size
  // matrices (0.16–3.8 M rows). 0 = auto: scale the unit with the instance
  // (≈ rows/160, clamped to [16, 1000]) so scaled-down experiments keep the
  // same queue granularity relative to the matrix; gpuRows stays 10× cpuRows.
  // Each dequeue also pays a fixed 0.2 µs (CPU end) or 1 µs (GPU end).
  index_t cpu_rows = 0;
  index_t gpu_rows = 0;
};

struct WorkQueueResult {
  // Benchmark shim: run_phase3's run store, each run in its A row's slot
  // (empty from schedule_workqueue).
  CsrMatrix tuples;
  ProductStats cpu_stats;
  ProductStats gpu_stats;
  double cpu_busy = 0;  // time the CPU spent on queue units
  double gpu_busy = 0;
  double cpu_end = 0;  // device clock when it stopped dequeuing
  double gpu_end = 0;
  int cpu_units = 0;
  int gpu_units = 0;

  double end_time() const { return std::max(cpu_end, gpu_end); }
};

/// Resolve auto (0) unit sizes against the instance size. Guarantees
/// 1 <= cpu_rows and 1 <= gpu_rows for every a_rows >= 0, and never picks an
/// auto cpu_rows larger than the instance itself (tiny matrices get
/// single-digit units instead of the 16-row floor).
WorkQueueConfig resolve_queue_config(WorkQueueConfig cfg, index_t a_rows);

/// The one Phase III scheduler: run the dequeue loop to empty over the rows
/// of `parts` in order (CPU end first; every row in [0, a_rows)), pricing
/// each dequeued unit as the sum of its rows' stats: row i of parts[p]
/// costs row_stats[p][i], each table holding a_rows entries. A unit that
/// straddles two parts is priced with their flops-weighted working set.
/// Device clocks start at cpu_start/gpu_start. Unit sizes of 0 are resolved
/// against `a_rows` via resolve_queue_config(). Deterministic. `tuples` is
/// left empty.
WorkQueueResult schedule_workqueue(
    std::span<const QueuePart> parts,
    std::span<const std::span<const ProductStats>> row_stats,
    const WorkQueueConfig& cfg, index_t a_rows, double cpu_start,
    double gpu_start, const HeteroPlatform& platform);

}  // namespace hh
