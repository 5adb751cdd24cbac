#include "core/hh_stages.hpp"

#include <vector>

namespace hh {
namespace {

// A Phase II product with an empty side contributes nothing; it is skipped
// so degenerate partitions charge no phantom per-row cost.
bool runs_hh(const PartitionPlan& plan) {
  return plan.a.high_count() > 0 && plan.b.high_count() > 0;
}
bool runs_ll(const PartitionPlan& plan) {
  return plan.a.low_count() > 0 && plan.b.low_count() > 0;
}

// Phase II device busy times from the two products' stats.
void price_phase2(Phase2Result& r, const PartitionPlan& plan,
                  const HeteroPlatform& platform) {
  r.cpu_s = platform.cpu().kernel_time(r.hh_stats, plan.ws_bh_bytes, true,
                                       /*blockable=*/true);
  r.gpu_s = platform.gpu().kernel_time(r.ll_stats);
}

// The Phase III queue: the plan's own row lists, A_L×B_H at the CPU end
// and A_H×B_L at the GPU end, which the GPU reaches from the back (§IV-B).
// A cross product whose B side is empty contributes nothing and is skipped
// outright (degenerate partitions on non-scale-free inputs; §V-B: HH-CPU
// must not pay for work that is not there).
std::vector<QueuePart> phase3_parts(const PartitionPlan& plan) {
  std::vector<QueuePart> parts;
  if (plan.b.high_count() > 0) {
    parts.push_back({{plan.a.low_rows, plan.b.is_high, true},
                     plan.ws_bh_bytes,
                     /*cpu_blockable=*/true});
  }
  if (plan.b.low_count() > 0) {
    parts.push_back({{plan.a.high_rows, plan.b.is_high, false},
                     plan.ws_bl_bytes,
                     /*cpu_blockable=*/false});
  }
  return parts;
}

// Σ of the per-row costs of `rows` against the B side b_mask == mask_value.
ProductStats sum_rows(const MaskedRowCosts& costs,
                      std::span<const index_t> rows, bool mask_value) {
  ProductStats s;
  for (const index_t i : rows) {
    s.accumulate(costs.by_mask[mask_value][static_cast<std::size_t>(i)]);
  }
  return s;
}

}  // namespace

Phase2Result run_phase2(const CsrMatrix& a, const CsrMatrix& b,
                        const PartitionPlan& plan,
                        const HeteroPlatform& platform, ThreadPool& pool,
                        WorkspacePool* workspace) {
  Phase2Result r;
  r.hh_tuples = runs_hh(plan)
                    ? partial_product_runs(a, b, plan.a.high_rows,
                                           plan.b.is_high, true, pool,
                                           &r.hh_stats, workspace)
                    : CsrMatrix(a.rows, b.cols);
  r.ll_tuples = runs_ll(plan)
                    ? partial_product_runs(a, b, plan.a.low_rows,
                                           plan.b.is_high, false, pool,
                                           &r.ll_stats, workspace)
                    : CsrMatrix(a.rows, b.cols);
  price_phase2(r, plan, platform);
  return r;
}

WorkQueueResult run_phase3(const CsrMatrix& a, const CsrMatrix& b,
                           const PartitionPlan& plan,
                           const WorkQueueConfig& cfg, double cpu_start,
                           double gpu_start, const HeteroPlatform& platform,
                           ThreadPool& pool, WorkspacePool* workspace) {
  return run_workqueue(a, b, phase3_parts(plan), cfg, cpu_start, gpu_start,
                       platform, pool, workspace);
}

Phase2Result cost_phase2(const PartitionPlan& plan, const MaskedRowCosts& costs,
                         const HeteroPlatform& platform) {
  Phase2Result r;
  if (runs_hh(plan)) r.hh_stats = sum_rows(costs, plan.a.high_rows, true);
  if (runs_ll(plan)) r.ll_stats = sum_rows(costs, plan.a.low_rows, false);
  price_phase2(r, plan, platform);
  return r;
}

WorkQueueResult cost_phase3(const PartitionPlan& plan,
                            const MaskedRowCosts& costs,
                            const WorkQueueConfig& cfg, double cpu_start,
                            double gpu_start, const HeteroPlatform& platform) {
  const std::vector<QueuePart> parts = phase3_parts(plan);
  std::vector<std::span<const ProductStats>> tables;
  for (const QueuePart& part : parts) {
    tables.emplace_back(costs.by_mask[part.product.b_mask_value]);
  }
  return schedule_workqueue(parts, tables, cfg,
                            plan.a.high_count() + plan.a.low_count(),
                            cpu_start, gpu_start, platform);
}

MergeResult run_phase4(Phase2Result&& p2, WorkQueueResult&& queue,
                       const HeteroPlatform& platform, ThreadPool& pool,
                       WorkspacePool* /*workspace*/) {
  MergeResult m;
  const CsrMatrix* parts[] = {&p2.hh_tuples, &p2.ll_tuples, &queue.tuples};
  m.c = merge_row_runs(parts, pool, &m.merge);
  m.cpu_s = platform.cpu().merge_time(m.merge.tuples_in);
  return m;
}

}  // namespace hh
