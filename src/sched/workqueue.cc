#include "sched/workqueue.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "util/check.hpp"

namespace hh {
namespace {

// Fixed cost of one dequeue on each end.
constexpr double kCpuDequeueS = 2e-7;  // atomic fetch-add on the CPU end
constexpr double kGpuDequeueS = 1e-6;  // offset exchange for the GPU end

// Flops-weighted working set and blockability of a CPU unit from its
// per-part flops (a unit spans two parts only when a device steals across
// the middle of the queue).
std::pair<double, bool> unit_shape(std::span<const QueuePart> parts,
                                   std::span<const std::int64_t> part_flops) {
  double ws = 0, flops = 0, blockable_flops = 0;
  for (std::size_t p = 0; p < parts.size(); ++p) {
    const auto f = static_cast<double>(part_flops[p]);
    ws += f * parts[p].cpu_ws_bytes;
    flops += f;
    if (parts[p].cpu_blockable) blockable_flops += f;
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

WorkQueueResult schedule_workqueue(
    std::span<const QueuePart> parts,
    std::span<const std::span<const ProductStats>> row_stats,
    const WorkQueueConfig& cfg_in, index_t a_rows, double cpu_start,
    double gpu_start, const HeteroPlatform& platform) {
  const WorkQueueConfig cfg = resolve_queue_config(cfg_in, a_rows);
  HH_CHECK(cfg.cpu_rows > 0 && cfg.gpu_rows > 0);
  HH_CHECK(row_stats.size() == parts.size());
  // start[p] is the queue position of parts[p]'s first row.
  std::vector<std::size_t> start{0};
  for (std::size_t p = 0; p < parts.size(); ++p) {
    HH_CHECK(row_stats[p].size() == static_cast<std::size_t>(a_rows));
    start.push_back(start.back() + parts[p].product.rows.size());
  }

  WorkQueueResult res;
  res.cpu_end = cpu_start;
  res.gpu_end = gpu_start;

  std::size_t front = 0;
  std::size_t back = start.back();
  std::vector<std::int64_t> part_flops(parts.size());
  // Σ of the stats of the rows at queue positions [lo, hi), read from each
  // part's table by A row; flops also per part.
  const auto price = [&](std::size_t lo, std::size_t hi, ProductStats& stats) {
    for (std::size_t p = 0; p < parts.size(); ++p) {
      part_flops[p] = 0;
      const std::span<const index_t> rows = parts[p].product.rows;
      const std::span<const ProductStats> table = row_stats[p];
      const std::size_t end = std::min(hi, start[p + 1]);
      for (std::size_t k = std::max(lo, start[p]); k < end; ++k) {
        const index_t i = rows[k - start[p]];
        HH_CHECK_MSG(i >= 0 && i < a_rows, "queue row " << i
                                               << " out of range for "
                                               << a_rows << " rows");
        const ProductStats& s = table[static_cast<std::size_t>(i)];
        stats.accumulate(s);
        part_flops[p] += s.flops;
      }
    }
  };

  while (front < back) {
    const bool cpu_turn = res.cpu_end <= res.gpu_end;
    if (cpu_turn) {
      const std::size_t n =
          std::min<std::size_t>(static_cast<std::size_t>(cfg.cpu_rows),
                                back - front);
      ProductStats stats;
      price(front, front + n, stats);
      front += n;
      const auto [ws, blockable] = unit_shape(parts, part_flops);
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
      price(back, back + n, stats);
      const double t = platform.gpu().kernel_time(stats) + kGpuDequeueS;
      res.gpu_busy += t;
      res.gpu_end += t;
      res.gpu_stats.accumulate(stats);
      res.gpu_units++;
    }
  }
  return res;
}

}  // namespace hh
