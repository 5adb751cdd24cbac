// Algorithm HH-CPU decomposed into schedulable stages.
//
// run_hh_cpu() executes the four phases back-to-back with the seed's serial
// transfer → compute → transfer accounting. The pipelined service runtime
// (src/runtime/) instead schedules each stage on its own resource timeline
// (CPU, GPU, H2D link, D2H link), overlapping stages of *different* requests.
// Both drivers call the functions below, so the numeric work — and therefore
// the output matrix — is identical; only the clock bookkeeping differs.
//
// Each stage sizes its own output. Phases II and III each write their
// products as sorted row runs into run stores, CsrMatrix objects over all of
// A's rows (partial_product_runs: a count pass, a scan, a numeric pass into
// preallocated slots), so every tuple is written once. Phase II writes one
// store per product. Phase III's queue is the plan's own two row lists,
// A_L×B_H at the CPU end and A_H×B_L at the GPU end, and it writes both into
// one store, as they hold each A row at most once. Phase IV merges the three
// stores by row straight into C: each row has at most two non-empty runs,
// its Phase II run (hh for A_H rows, ll for A_L rows) and its queue run.
// Given a WorkspacePool, each store goes back to it under its product's
// role (spgemm/workspace.hpp).
//
// cost_hh_cpu() and cost_hh_cpu_grid() (core/hh_cpu.hpp) replace the Phase
// II and III products with cost_phase2/cost_phase3 below: the same stats,
// device times and dequeue order, summed in place from per-row symbolic
// costs indexed by A row, with no tuple formed. The grid form calls them
// once per threshold on the row costs one symbolic pass keeps current
// (row_costs_on_grid).
//
// Stage → resource map used by the runtime:
//   make_partition_plan (Phase I)   CPU (identification) [+ classify charge]
//   run_phase2                      CPU (A_H×B_H) ∥ GPU (A_L×B_L)
//   run_phase3                      CPU + GPU jointly (double-ended queue)
//   D2H tuple shipment              D2H channel
//   run_phase4                      CPU (the host merges two runs per row;
//                                   the clock charges the paper's radix
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
/// empty side are skipped (no phantom per-row cost) and leave an empty run
/// store. Durations are per-device busy times; the caller decides how they
/// overlap.
struct Phase2Result {
  CsrMatrix hh_tuples;  // CPU side: the runs of the A_H rows
  CsrMatrix ll_tuples;  // GPU side: the runs of the A_L rows
  ProductStats hh_stats;
  ProductStats ll_stats;
  double cpu_s = 0;
  double gpu_s = 0;
};

Phase2Result run_phase2(const CsrMatrix& a, const CsrMatrix& b,
                        const PartitionPlan& plan,
                        const HeteroPlatform& platform, ThreadPool& pool,
                        WorkspacePool* workspace = nullptr);

/// Phase III: the double-ended workqueue over A_L×B_H (CPU end) and A_H×B_L
/// (GPU end). Device clocks enter at cpu_start/gpu_start; cross products
/// whose B side is empty are skipped outright.
WorkQueueResult run_phase3(const CsrMatrix& a, const CsrMatrix& b,
                           const PartitionPlan& plan,
                           const WorkQueueConfig& cfg, double cpu_start,
                           double gpu_start, const HeteroPlatform& platform,
                           ThreadPool& pool,
                           WorkspacePool* workspace = nullptr);

/// Cost-only Phase II and III for `costs`, the MaskedRowCosts of (a, b) at
/// plan.b.threshold: the stats, device times and (Phase III) dequeue order
/// of run_phase2/run_phase3, skips included, with every run store left
/// empty.
Phase2Result cost_phase2(const PartitionPlan& plan, const MaskedRowCosts& costs,
                         const HeteroPlatform& platform);
WorkQueueResult cost_phase3(const PartitionPlan& plan,
                            const MaskedRowCosts& costs,
                            const WorkQueueConfig& cfg, double cpu_start,
                            double gpu_start, const HeteroPlatform& platform);

/// Phase IV: merge the hh, ll and queue run stores into the final CSR
/// (merge_row_runs, in that part order), reading them in place. Once C is
/// built each store goes back to `workspace` when given, under its own role
/// (the next product's Phases II–III draw them from it), else they are
/// freed. cpu_s is the merge time on the CPU model; the D2H shipment of the
/// GPU tuples is charged separately by the caller.
struct MergeResult {
  CsrMatrix c;
  MergeStats merge;
  double cpu_s = 0;
};

MergeResult run_phase4(Phase2Result&& p2, WorkQueueResult&& queue,
                       const HeteroPlatform& platform, ThreadPool& pool,
                       WorkspacePool* workspace = nullptr);

}  // namespace hh
