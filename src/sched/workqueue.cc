#include "sched/workqueue.hpp"

#include <algorithm>
#include <utility>

#include "util/check.hpp"

namespace hh {
namespace {

// Execute one dequeued unit: group its entries by tag (units are usually
// single-tag since each side is homogeneous) and run the masked kernel.
void run_unit(const CsrMatrix& a, const CsrMatrix& b,
              std::span<const WorkEntry> unit,
              std::span<const MaskSpec> masks, ThreadPool& pool,
              WorkspacePool* workspace, CooMatrix& tuples_out,
              ProductStats& unit_stats, std::span<ProductStats> per_tag_stats) {
  std::vector<index_t> rows;
  rows.reserve(unit.size());
  for (std::size_t i = 0; i < unit.size();) {
    const std::int8_t tag = unit[i].tag;
    rows.clear();
    while (i < unit.size() && unit[i].tag == tag) {
      rows.push_back(unit[i].row);
      ++i;
    }
    const MaskSpec& mask = masks[static_cast<std::size_t>(tag)];
    ProductStats stats;
    CooMatrix tuples =
        partial_product_tuples(a, b, rows, mask.b_mask, mask.b_mask_value,
                               pool, &stats, workspace);
    tuples_out.append(tuples);
    if (workspace != nullptr) workspace->release_coo(std::move(tuples));
    unit_stats.accumulate(stats);
    per_tag_stats[static_cast<std::size_t>(tag)].accumulate(stats);
  }
}

// Flops-weighted working set / blockability when a unit mixes tags (only
// happens when a device steals across the middle of the queue).
double unit_ws_bytes(std::span<const MaskSpec> masks,
                     std::span<const ProductStats> tag_stats_delta) {
  double ws = 0;
  double flops = 0;
  for (std::size_t t = 0; t < masks.size(); ++t) {
    const auto f = static_cast<double>(tag_stats_delta[t].flops);
    ws += f * masks[t].cpu_ws_bytes;
    flops += f;
  }
  return flops > 0 ? ws / flops : 0.0;
}

bool unit_blockable(std::span<const MaskSpec> masks,
                    std::span<const ProductStats> tag_stats_delta) {
  double flops = 0, blockable_flops = 0;
  for (std::size_t t = 0; t < masks.size(); ++t) {
    const auto f = static_cast<double>(tag_stats_delta[t].flops);
    flops += f;
    if (masks[t].cpu_blockable) blockable_flops += f;
  }
  return flops > 0 && blockable_flops >= 0.5 * flops;
}

}  // namespace

WorkQueueConfig resolve_queue_config(WorkQueueConfig cfg, index_t a_rows) {
  if (cfg.cpu_rows <= 0) {
    // The 16-row floor must itself bend for tiny instances: a matrix with
    // fewer than 16 rows gets a unit of its own size (min 1) so the auto
    // pick can never exceed a_rows or round a unit down to zero.
    const std::int64_t floor_rows =
        std::max<std::int64_t>(1, std::min<std::int64_t>(16, a_rows));
    cfg.cpu_rows = static_cast<index_t>(
        std::clamp<std::int64_t>(a_rows / 160, floor_rows, 1000));
  }
  if (cfg.gpu_rows <= 0) {
    cfg.gpu_rows = static_cast<index_t>(
        std::max<std::int64_t>(1, std::int64_t{10} * cfg.cpu_rows));
  }
  return cfg;
}

WorkQueueResult schedule_workqueue(std::span<const WorkEntry> entries,
                                   std::span<const MaskSpec> masks,
                                   const WorkQueueConfig& cfg_in,
                                   index_t a_rows, double cpu_start,
                                   double gpu_start,
                                   const HeteroPlatform& platform,
                                   const UnitPricer& price) {
  const WorkQueueConfig cfg = resolve_queue_config(cfg_in, a_rows);
  HH_CHECK(cfg.cpu_rows > 0 && cfg.gpu_rows > 0);
  for (const WorkEntry& e : entries) {
    HH_CHECK(e.tag >= 0 && static_cast<std::size_t>(e.tag) < masks.size());
  }

  WorkQueueResult res;
  res.cpu_end = cpu_start;
  res.gpu_end = gpu_start;

  std::size_t front = 0;
  std::size_t back = entries.size();
  std::vector<ProductStats> tag_delta(masks.size());

  while (front < back) {
    const bool cpu_turn = res.cpu_end <= res.gpu_end;
    if (cpu_turn) {
      const std::size_t n =
          std::min<std::size_t>(static_cast<std::size_t>(cfg.cpu_rows),
                                back - front);
      const auto unit = entries.subspan(front, n);
      front += n;
      for (auto& d : tag_delta) d = ProductStats{};
      ProductStats stats;
      price(unit, stats, tag_delta);
      const double ws = unit_ws_bytes(masks, tag_delta);
      const bool blockable = unit_blockable(masks, tag_delta);
      const double t =
          platform.cpu().kernel_time(stats, ws, cfg.cpu_rewritten, blockable) +
          cfg.cpu_dequeue_s;
      res.cpu_busy += t;
      res.cpu_end += t;
      res.cpu_stats.accumulate(stats);
      res.cpu_units++;
    } else {
      const std::size_t n =
          std::min<std::size_t>(static_cast<std::size_t>(cfg.gpu_rows),
                                back - front);
      const auto unit = entries.subspan(back - n, n);
      back -= n;
      for (auto& d : tag_delta) d = ProductStats{};
      ProductStats stats;
      price(unit, stats, tag_delta);
      const double t = platform.gpu().kernel_time(stats) + cfg.gpu_dequeue_s;
      res.gpu_busy += t;
      res.gpu_end += t;
      res.gpu_stats.accumulate(stats);
      res.gpu_units++;
    }
  }
  return res;
}

WorkQueueResult run_workqueue(const CsrMatrix& a, const CsrMatrix& b,
                              std::span<const WorkEntry> entries,
                              std::span<const MaskSpec> masks,
                              const WorkQueueConfig& cfg, double cpu_start,
                              double gpu_start,
                              const HeteroPlatform& platform,
                              ThreadPool& pool, WorkspacePool* workspace) {
  CooMatrix tuples(a.rows, b.cols);
  WorkQueueResult res = schedule_workqueue(
      entries, masks, cfg, a.rows, cpu_start, gpu_start, platform,
      [&](std::span<const WorkEntry> unit, ProductStats& stats,
          std::span<ProductStats> tag_stats) {
        run_unit(a, b, unit, masks, pool, workspace, tuples, stats,
                 tag_stats);
      });
  res.tuples = std::move(tuples);
  return res;
}

}  // namespace hh
