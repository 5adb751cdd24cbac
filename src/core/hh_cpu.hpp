// Algorithm HH-CPU (paper Algorithm 1): heterogeneous SpGEMM for scale-free
// matrices on a CPU+GPU platform.
//
//   Phase I    identify thresholds and the A_H/A_L, B_H/B_L views
//   Phase II   CPU: A_H×B_H (cache-friendly dense×dense)  ∥
//              GPU: A_L×B_L (many tiny independent row tasks)
//   Phase III  double-ended workqueue over A_L×B_H (CPU end) and
//              A_H×B_L (GPU end); a device finishing its side steals
//   Phase IV   merge all ⟨r,c,v⟩ tuples into the final CSR; GPU partials
//              are shipped back over PCIe
//
// Time is charged on the simulated platform (DESIGN.md §1) from one
// symbolic pass that prices the four products per row, never storing them.
// cost_hh_cpu() is that pricing alone, and cost_hh_cpu_grid() prices a
// whole threshold sweep from one such pass. run_hh_cpu() adds one numeric
// pass writing C, bit-identical to merging the products' tuples in phase
// order and within 1e-9 of multiply(kGustavson), which sums in A-entry
// order.
#pragma once

#include <span>
#include <vector>

#include "core/partition_plan.hpp"
#include "core/report.hpp"
#include "device/platform.hpp"
#include "sched/workqueue.hpp"
#include "sparse/csr.hpp"
#include "spgemm/workspace.hpp"
#include "util/thread_pool.hpp"

namespace hh {

struct HhCpuOptions {
  offset_t threshold_a = 0;  // 0 = analytic pick (shared t, as in Fig. 8)
  offset_t threshold_b = 0;
  WorkQueueConfig queue;
  bool matrices_already_on_gpu = false;  // skip the input transfer charge
  WorkspacePool* workspace = nullptr;    // optional SPA accumulator pool
};

/// Run Algorithm HH-CPU for C = A × B. When &a == &b (the paper multiplies
/// each matrix with itself) the input is transferred once. Malformed
/// operands throw CheckError (check_operands).
RunResult run_hh_cpu(const CsrMatrix& a, const CsrMatrix& b,
                     const HhCpuOptions& options, const HeteroPlatform& platform,
                     ThreadPool& pool);

/// Cost-only dry run: returns run_hh_cpu(a, b, options, platform,
/// pool).report exactly — every field equal, every double bit for bit —
/// as run_hh_cpu prices the same pass. One pool-parallel symbolic pass
/// (row_costs_at t_B) yields each A row's stats against B_H and B_L and its
/// distinct output columns; Phases II–IV are then priced through the skip
/// rules, dequeue loop and accounting of core/hh_stages.hpp.
/// options.workspace is ignored. Costs one symbolic pass per call, without
/// run_hh_cpu's numeric pass.
RunReport cost_hh_cpu(const CsrMatrix& a, const CsrMatrix& b,
                      const HhCpuOptions& options,
                      const HeteroPlatform& platform, ThreadPool& pool);

/// cost_hh_cpu at every point of a threshold grid from one symbolic pass:
/// entry g equals cost_hh_cpu(a, b, options with threshold_a = threshold_b
/// = grid[g], platform, pool), field for field and bit for bit; the
/// thresholds in `options` are ignored. `grid` must be strictly ascending,
/// with every t >= 1 and at most kMaxGridPoints points (spgemm/spgemm.hpp),
/// or this throws CheckError; threshold_grid() and threshold_candidates()
/// qualify. Costs one row_costs_on_grid pass plus an O(rows) pricing per
/// point, against one pass per point for a loop over cost_hh_cpu.
std::vector<RunReport> cost_hh_cpu_grid(const CsrMatrix& a, const CsrMatrix& b,
                                        std::span<const offset_t> grid,
                                        const HhCpuOptions& options,
                                        const HeteroPlatform& platform,
                                        ThreadPool& pool);

}  // namespace hh
