// Calibrated cost model for the paper's experimental platform (§II-B):
// an Intel i7-980 (Westmere, 6 cores @ 3.4 GHz, 12 MB shared L3) plus an
// NVIDIA Tesla K20c (Kepler, 13 SMX × 192 cores @ 706 MHz) on PCIe 2.0.
//
// The host this repository runs on has neither device, so every experiment
// charges *simulated* time from these models (see DESIGN.md §1). The models
// are first-order rooflines with exactly the effects the paper argues from:
//  - GPU reads move 128-byte transactions, so short scale-free rows waste
//    most of each line;
//  - rows whose accumulator exceeds shared memory scatter uncoalesced
//    writes into a global-memory PartialOutput (the [13] GPU kernel);
//  - a row is bound to one warp, so one huge row serializes the kernel tail;
//  - the CPU runs near its cached throughput only when the touched part of
//    B fits in LLC — which is what A_H × B_H gives it (paper §III-B);
//  - the HH-CPU "rewritten for CPU" kernel pays 15–20 % over MKL (§III-B).
//
// `derate` rescales both devices identically so effective SpGEMM throughput
// lands in the ~1 GFLOP/s band this hardware class achieved on scale-free
// inputs; it cancels in every ratio the paper reports.
#pragma once

#include <cstdint>

namespace hh {

struct GpuCostModel {
  double clock_ghz = 0.706;       // K20c core clock
  int smx = 13;                   // streaming multiprocessors
  int warp_width = 32;            // threads per warp
  double warp_issue_slots = 52;   // smx × 4 schedulers: warp-instr / cycle
  double alu_cpi = 40.0;          // cycles per warp instruction, folding
                                  // issue stalls and address arithmetic
  double mem_bw_gbps = 15.0;      // *effective* bandwidth under irregular
                                  // 32-byte accesses (~7% of the 208 GB/s
                                  // peak — typical for SpGEMM on Kepler)
  double uncoalesced_write_bytes = 32.0;  // per flop on the global path: one
                                          // extra 32-byte transaction per
                                          // scattered PartialOutput update
                                          // (global memory, §II-A(b))
  double single_warp_cpi = 10.0;  // latency-bound lone warp (serial tail)
  double row_cycles = 80.0;       // per-row scheduling + compaction
  double kernel_launch_s = 8e-6;  // per kernel / work-unit launch
  double classify_cycles = 2.0;   // per row, Phase I boolean array
  double library_two_phase_factor = 1.7;  // cuSPARSE csrgemm's exact-CSR
                                          // symbolic+numeric two-pass
  double esc_bytes_per_flop = 110.0;  // cuSPARSE-like expand-sort-contract
  double derate = 1.0;            // extra uniform derate (calibration knob)
};

struct CpuCostModel {
  double clock_ghz = 3.4;   // i7-980
  int cores = 6;
  double parallel_eff = 0.85;
  double l3_bytes = 12.0 * 1024 * 1024;
  double flop_cycles_cached = 30.0;  // B working set resident in LLC:
                                     // cache-blocked streaming through few
                                     // long hub rows (§III-B)
  double flop_cycles_stream = 115.0; // B streamed from DRAM
  double a_nnz_cycles_cached = 180.0; // per B-row visit even when cached:
                                      // dependent pointer chase, inner-loop
                                      // setup, SPA churn. Short rows are
                                      // visit-bound (cost/flop ≈ this/len),
                                      // long hub rows amortize it — which is
                                      // why only A_H×B_H enjoys the cached
                                      // flop rate in practice (§III-B)
  double a_nnz_cycles_miss = 250.0;   // same, plus the DRAM latency
  double tuple_cycles = 25.0;         // emit + sort, amortized per tuple
  double scatter_cycles = 90.0;  // extra per flop of a wide-output row (SPA
                                 // larger than L2 → a miss per update),
                                 // UNLESS the product is column-blockable:
                                 // A_X×B_H re-tiles over the few B_H rows so
                                 // the accumulator tile stays cached (§III-B
                                 // "good cache blocking techniques can be
                                 // used when multiplying A_H with B_H")
  double row_cycles = 150.0;          // per-row bookkeeping
  double merge_cycles_per_tuple = 4.0;  // Phase IV radix sort + reduce
  double rewritten_penalty = 1.175;   // §III-B: 15–20 % over MKL
  double library_two_phase_factor = 1.7;  // MKL csrmultcsr computes exact
                                          // CSR with a symbolic+numeric
                                          // two-pass; HH/[13] emit tuples in
                                          // one pass and merge in Phase IV
  double derate = 1.0;
};

struct PcieCostModel {
  double bw_gbps = 8.0;      // PCIe 2.0 ×16 nominal (paper §II-B)
  double efficiency = 0.35;  // calibrated: ~5 M-nnz matrix ≈ 25–30 ms (§IV-A)
  double latency_s = 20e-6;
};

struct CostModel {
  GpuCostModel gpu;
  CpuCostModel cpu;
  PcieCostModel pcie;
};

}  // namespace hh
