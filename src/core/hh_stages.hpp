// Algorithm HH-CPU decomposed into schedulable stages.
//
// The four products of Phases II and III are priced, not stored. Both
// drivers, run_hh_cpu() and the pipelined service runtime (src/runtime/),
// take the per-row costs of one symbolic pass at the plan's B threshold
// (row_costs_at) and price them with cost_phase2/cost_phase3 below: the
// stats, device times and dequeue order, summed in place from costs indexed
// by A row. Phase III's queue is the plan's own two row lists, A_L×B_H at
// the CPU end and A_H×B_L at the GPU end. C then comes from one numeric
// pass (numeric_in_halves), so the products exist on the host only as
// per-row counts. run_hh_cpu() charges the serial transfer → compute →
// transfer accounting; the runtime places each stage on its own resource
// timeline, overlapping stages of different requests. cost_hh_cpu_grid()
// prices every threshold of a grid from one pass (row_costs_on_grid).
//
// Benchmark shim: run_phase2, run_phase3 and run_phase4 execute the four
// products into run stores and merge them into C (merge_row_runs). Each
// store is Gustavson's product (spgemm/gustavson.hpp) of a copy of A that
// keeps only the entries its product reads (mask_entries), so each row's
// run sits in its row's slot, and is priced from its own row sizes
// (product_row_stats); Phase III's queue is then schedule_workqueue over
// those stats. Nothing in the library calls them; the benchmark's traced
// one-shot run times them as stages and checks that they compose to
// run_hh_cpu bit for bit, with an equal report.
//
// Stage → resource map used by the runtime:
//   make_partition_plan (Phase I)   CPU (identification) [+ classify charge]
//   cost_phase2                     CPU (A_H×B_H) ∥ GPU (A_L×B_L)
//   cost_phase3                     CPU + GPU jointly (double-ended queue)
//   D2H tuple shipment              D2H channel
//   Phase IV merge                  CPU (the clock charges the paper's radix
//                                   sort + mark/scan/reduce)
#pragma once

#include "core/partition_plan.hpp"
#include "device/platform.hpp"
#include "primitives/tuple_merge.hpp"
#include "sched/workqueue.hpp"
#include "sparse/csr.hpp"
#include "spgemm/spgemm.hpp"
#include "spgemm/workspace.hpp"
#include "util/thread_pool.hpp"

namespace hh {

/// Phase II: CPU computes A_H×B_H, GPU computes A_L×B_L. Products with an
/// empty side are skipped (no phantom per-row cost). Durations are
/// per-device busy times; the caller decides how they overlap.
struct Phase2Result {
  // Benchmark shim: run_phase2's run stores (empty from cost_phase2).
  CsrMatrix hh_tuples;  // CPU side: the runs of the A_H rows
  CsrMatrix ll_tuples;  // GPU side: the runs of the A_L rows
  ProductStats hh_stats;
  ProductStats ll_stats;
  double cpu_s = 0;
  double gpu_s = 0;
};

/// Benchmark shim: Phase II with both products executed into run stores
/// (a skipped product leaves an empty one). `workspace` is unused and stays
/// for the benchmark's calls.
Phase2Result run_phase2(const CsrMatrix& a, const CsrMatrix& b,
                        const PartitionPlan& plan,
                        const HeteroPlatform& platform, ThreadPool& pool,
                        WorkspacePool* workspace = nullptr);

/// Benchmark shim: Phase III, the double-ended workqueue over A_L×B_H (CPU
/// end) and A_H×B_L (GPU end), with the queue executed into one run store
/// (each row against its other B side) and scheduled by schedule_workqueue
/// over that store's per-row stats. Device clocks enter at
/// cpu_start/gpu_start; cross products whose B side is empty are skipped
/// outright. `workspace` is unused and stays for the benchmark's calls.
WorkQueueResult run_phase3(const CsrMatrix& a, const CsrMatrix& b,
                           const PartitionPlan& plan,
                           const WorkQueueConfig& cfg, double cpu_start,
                           double gpu_start, const HeteroPlatform& platform,
                           ThreadPool& pool,
                           WorkspacePool* workspace = nullptr);

/// Phase II and III for `costs`, the MaskedRowCosts of (a, b) at
/// plan.b.threshold: the stats, device times and (Phase III) dequeue order
/// of run_phase2/run_phase3, skips included, with every run store left
/// empty.
Phase2Result cost_phase2(const PartitionPlan& plan, const MaskedRowCosts& costs,
                         const HeteroPlatform& platform);
WorkQueueResult cost_phase3(const PartitionPlan& plan,
                            const MaskedRowCosts& costs,
                            const WorkQueueConfig& cfg, double cpu_start,
                            double gpu_start, const HeteroPlatform& platform);

/// Benchmark shim: Phase IV, merging the hh, ll and queue run stores into
/// the final CSR (merge_row_runs, in that part order), reading them in
/// place. cpu_s is the merge time on the CPU model; the D2H shipment of the
/// GPU tuples is charged separately by the caller. `workspace` is unused
/// (the pool keeps no run stores) and stays for the benchmark's calls.
struct MergeResult {
  CsrMatrix c;
  MergeStats merge;
  double cpu_s = 0;
};

MergeResult run_phase4(Phase2Result&& p2, WorkQueueResult&& queue,
                       const HeteroPlatform& platform, ThreadPool& pool,
                       WorkspacePool* workspace = nullptr);

}  // namespace hh
