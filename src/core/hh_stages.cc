#include "core/hh_stages.hpp"

#include <vector>

#include "sparse/convert.hpp"
#include "spgemm/gustavson.hpp"

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

// Σ of the per-row stats of `rows` in a table indexed by A row.
ProductStats sum_rows(std::span<const ProductStats> table,
                      std::span<const index_t> rows) {
  ProductStats s;
  for (const index_t i : rows) s.accumulate(table[static_cast<std::size_t>(i)]);
  return s;
}

// A staged product's run store: Gustavson over the copy of A that keeps the
// entries a(i, j) with keep(i, j), so row i's run sits in row i's slot, and
// that store's per-row stats.
template <class Keep>
CsrMatrix staged_store(const CsrMatrix& a, const CsrMatrix& b, Keep&& keep,
                       ThreadPool& pool, std::vector<ProductStats>& row_stats) {
  const CsrMatrix masked = mask_entries(a, keep);
  CsrMatrix store = gustavson_spgemm_parallel(masked, b, pool);
  row_stats = product_row_stats(masked, b, store);
  return store;
}

}  // namespace

Phase2Result run_phase2(const CsrMatrix& a, const CsrMatrix& b,
                        const PartitionPlan& plan,
                        const HeteroPlatform& platform, ThreadPool& pool,
                        WorkspacePool* /*workspace*/) {
  const std::vector<std::uint8_t>& a_high = plan.a.is_high;
  const std::vector<std::uint8_t>& b_high = plan.b.is_high;
  Phase2Result r;
  std::vector<ProductStats> table;
  r.hh_tuples = CsrMatrix(a.rows, b.cols);
  if (runs_hh(plan)) {
    r.hh_tuples = staged_store(
        a, b, [&](index_t i, index_t j) { return a_high[i] && b_high[j]; },
        pool, table);
    r.hh_stats = sum_rows(table, plan.a.high_rows);
  }
  r.ll_tuples = CsrMatrix(a.rows, b.cols);
  if (runs_ll(plan)) {
    r.ll_tuples = staged_store(
        a, b, [&](index_t i, index_t j) { return !a_high[i] && !b_high[j]; },
        pool, table);
    r.ll_stats = sum_rows(table, plan.a.low_rows);
  }
  price_phase2(r, plan, platform);
  return r;
}

WorkQueueResult run_phase3(const CsrMatrix& a, const CsrMatrix& b,
                           const PartitionPlan& plan,
                           const WorkQueueConfig& cfg, double cpu_start,
                           double gpu_start, const HeteroPlatform& platform,
                           ThreadPool& pool, WorkspacePool* /*workspace*/) {
  // Each row's queue run is its entries on its other B side; a skipped
  // part's rows have no such entries, as that B side is empty.
  const std::vector<std::uint8_t>& a_high = plan.a.is_high;
  const std::vector<std::uint8_t>& b_high = plan.b.is_high;
  std::vector<ProductStats> table;
  CsrMatrix tuples = staged_store(
      a, b, [&](index_t i, index_t j) { return a_high[i] != b_high[j]; }, pool,
      table);
  const std::vector<QueuePart> parts = phase3_parts(plan);
  const std::vector<std::span<const ProductStats>> tables(parts.size(), table);
  WorkQueueResult res = schedule_workqueue(parts, tables, cfg, a.rows,
                                           cpu_start, gpu_start, platform);
  res.tuples = std::move(tuples);
  return res;
}

Phase2Result cost_phase2(const PartitionPlan& plan, const MaskedRowCosts& costs,
                         const HeteroPlatform& platform) {
  Phase2Result r;
  if (runs_hh(plan)) r.hh_stats = sum_rows(costs.by_mask[1], plan.a.high_rows);
  if (runs_ll(plan)) r.ll_stats = sum_rows(costs.by_mask[0], plan.a.low_rows);
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
