#include "sched/workqueue.hpp"

#include <algorithm>
#include <utility>

#include "util/check.hpp"

namespace hh {
namespace {

// Fixed cost of one dequeue on each end.
constexpr double kCpuDequeueS = 2e-7;  // atomic fetch-add on the CPU end
constexpr double kGpuDequeueS = 1e-6;  // offset exchange for the GPU end

// Flops-weighted working set and blockability of a CPU unit from its
// per-tag flops (a unit mixes tags only when a device steals across the
// middle of the queue).
std::pair<double, bool> unit_shape(std::span<const MaskSpec> masks,
                                   std::span<const std::int64_t> tag_flops) {
  double ws = 0, flops = 0, blockable_flops = 0;
  for (std::size_t t = 0; t < masks.size(); ++t) {
    const auto f = static_cast<double>(tag_flops[t]);
    ws += f * masks[t].cpu_ws_bytes;
    flops += f;
    if (masks[t].cpu_blockable) blockable_flops += f;
  }
  return {flops > 0 ? ws / flops : 0.0,
          flops > 0 && blockable_flops >= 0.5 * flops};
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
                                   std::span<const ProductStats> entry_stats,
                                   std::span<const MaskSpec> masks,
                                   const WorkQueueConfig& cfg_in,
                                   index_t a_rows, double cpu_start,
                                   double gpu_start,
                                   const HeteroPlatform& platform) {
  const WorkQueueConfig cfg = resolve_queue_config(cfg_in, a_rows);
  HH_CHECK(cfg.cpu_rows > 0 && cfg.gpu_rows > 0);
  HH_CHECK(entry_stats.size() == entries.size());
  for (const WorkEntry& e : entries) {
    HH_CHECK(e.tag >= 0 && static_cast<std::size_t>(e.tag) < masks.size());
    HH_CHECK_MSG(e.row >= 0 && e.row < a_rows,
                 "queue entry row " << e.row << " out of range for " << a_rows
                                    << " rows");
  }

  WorkQueueResult res;
  res.cpu_end = cpu_start;
  res.gpu_end = gpu_start;

  std::size_t front = 0;
  std::size_t back = entries.size();
  std::vector<std::int64_t> tag_flops(masks.size());
  // Σ of the unit's table rows; flops also per tag.
  const auto price = [&](std::size_t lo, std::size_t n, ProductStats& stats) {
    std::fill(tag_flops.begin(), tag_flops.end(), 0);
    for (std::size_t k = lo; k < lo + n; ++k) {
      stats.accumulate(entry_stats[k]);
      tag_flops[static_cast<std::size_t>(entries[k].tag)] +=
          entry_stats[k].flops;
    }
  };

  while (front < back) {
    const bool cpu_turn = res.cpu_end <= res.gpu_end;
    if (cpu_turn) {
      const std::size_t n =
          std::min<std::size_t>(static_cast<std::size_t>(cfg.cpu_rows),
                                back - front);
      ProductStats stats;
      price(front, n, stats);
      front += n;
      const auto [ws, blockable] = unit_shape(masks, tag_flops);
      // The CPU runs the rewritten [13] kernel.
      const double t =
          platform.cpu().kernel_time(stats, ws, /*rewritten=*/true, blockable) +
          kCpuDequeueS;
      res.cpu_busy += t;
      res.cpu_end += t;
      res.cpu_stats.accumulate(stats);
      res.cpu_units++;
    } else {
      const std::size_t n =
          std::min<std::size_t>(static_cast<std::size_t>(cfg.gpu_rows),
                                back - front);
      back -= n;
      ProductStats stats;
      price(back, n, stats);
      const double t = platform.gpu().kernel_time(stats) + kGpuDequeueS;
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
  // One kernel call, one part per maximal same-tag run of entries: each
  // entry's run goes to its row's slot and its stats fill the pricing table.
  std::vector<index_t> rows(entries.size());
  std::vector<MaskedRows> parts;
  for (std::size_t lo = 0; lo < entries.size();) {
    const std::int8_t tag = entries[lo].tag;
    HH_CHECK(tag >= 0 && static_cast<std::size_t>(tag) < masks.size());
    std::size_t hi = lo;
    for (; hi < entries.size() && entries[hi].tag == tag; ++hi) {
      rows[hi] = entries[hi].row;
    }
    const MaskSpec& mask = masks[static_cast<std::size_t>(tag)];
    parts.push_back({std::span(rows).subspan(lo, hi - lo), mask.b_mask,
                     mask.b_mask_value});
    lo = hi;
  }
  std::vector<ProductStats> entry_stats(entries.size());
  CsrMatrix tuples = partial_product_runs(a, b, parts, pool, nullptr,
                                          workspace, entry_stats);
  WorkQueueResult res =
      schedule_workqueue(entries, entry_stats, masks, cfg, a.rows, cpu_start,
                         gpu_start, platform);
  res.tuples = std::move(tuples);
  return res;
}

}  // namespace hh
