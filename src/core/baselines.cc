#include "core/baselines.hpp"

#include <algorithm>
#include <numeric>

#include "sched/static_partition.hpp"
#include "spgemm/gustavson.hpp"
#include "spgemm/spgemm.hpp"

namespace hh {
namespace {

std::vector<index_t> iota_rows(index_t n) {
  std::vector<index_t> rows(static_cast<std::size_t>(n));
  std::iota(rows.begin(), rows.end(), index_t{0});
  return rows;
}

// What every baseline computes: C is Gustavson's product, and `row_stats`
// receives each row's stats, priced from its size in C. The clock still
// charges a merge of C's tuples where the algorithm has one.
RunResult stored_product(const char* name, const CsrMatrix& a,
                         const CsrMatrix& b, ThreadPool& pool,
                         std::vector<ProductStats>& row_stats) {
  RunResult res;
  res.report.algorithm = name;
  res.c = gustavson_spgemm_parallel(a, b, pool);
  row_stats = product_row_stats(a, b, res.c);
  res.report.merge.tuples_in = res.c.nnz();
  res.report.merge.tuples_out = res.c.nnz();
  res.report.output_nnz = res.c.nnz();
  return res;
}

// Σ of the stats of rows [lo, hi).
ProductStats sum_rows(std::span<const ProductStats> row_stats, index_t lo,
                      index_t hi) {
  ProductStats s;
  for (index_t i = lo; i < hi; ++i) {
    s.accumulate(row_stats[static_cast<std::size_t>(i)]);
  }
  return s;
}

// §V-C: one queue over `rows` of A against all of B, CPU from the front
// and GPU from the back, priced from C's per-row stats.
RunResult run_baseline_workqueue(const char* name, const CsrMatrix& a,
                                 const CsrMatrix& b,
                                 std::span<const index_t> rows,
                                 const WorkQueueConfig& cfg,
                                 const HeteroPlatform& platform,
                                 ThreadPool& pool) {
  check_operands(a, b);
  std::vector<ProductStats> row_stats;
  RunResult res = stored_product(name, a, b, pool, row_stats);
  RunReport& rep = res.report;
  const double transfer_in = platform.link().h2d().operands_transfer_time(a, b);
  const QueuePart parts[] = {{{rows, {}, true},
                              12.0 * static_cast<double>(b.nnz())}};
  const std::span<const ProductStats> tables[] = {row_stats};
  const WorkQueueResult queue =
      schedule_workqueue(parts, tables, cfg, a.rows, /*cpu_start=*/0.0,
                         /*gpu_start=*/transfer_in, platform);
  rep.transfer_in_s = transfer_in;
  rep.phase3_cpu_s = queue.cpu_busy;
  rep.phase3_gpu_s = queue.gpu_busy;
  rep.phase3_s = HeteroPlatform::overlap(queue.cpu_busy, queue.gpu_busy);
  rep.queue_cpu_units = queue.cpu_units;
  rep.queue_gpu_units = queue.gpu_units;
  rep.flops = queue.cpu_stats.flops + queue.gpu_stats.flops;

  rep.transfer_out_s =
      platform.link().d2h().tuple_transfer_time(queue.gpu_stats.tuples);
  rep.phase4_s = platform.cpu().merge_time(rep.merge.tuples_in);
  rep.total_s = queue.end_time() + rep.transfer_out_s + rep.phase4_s;
  return res;
}

}  // namespace

RunResult run_hipc2012(const CsrMatrix& a, const CsrMatrix& b,
                       const HeteroPlatform& platform, ThreadPool& pool) {
  check_operands(a, b);
  // The split reads only A and B. It runs before C and C's per-row stats
  // are allocated, so its own per-row tables are freed by then and do not
  // add to the peak memory.
  const StaticSplit split = balance_static_split(a, b, platform);
  std::vector<ProductStats> row_stats;
  RunResult res = stored_product("HiPC2012", a, b, pool, row_stats);
  RunReport& rep = res.report;

  const double transfer_in = platform.link().h2d().operands_transfer_time(a, b);
  rep.transfer_in_s = transfer_in;

  // Each device's stats are the sum over its row block.
  const ProductStats cpu_stats = sum_rows(row_stats, 0, split.split_row);
  const ProductStats gpu_stats = sum_rows(row_stats, split.split_row, a.rows);

  const double ws_full = 12.0 * static_cast<double>(b.nnz());
  const double t_cpu = platform.cpu().kernel_time(cpu_stats, ws_full, true);
  const double t_gpu = transfer_in + platform.gpu().kernel_time(gpu_stats);
  rep.phase2_cpu_s = t_cpu;
  rep.phase2_gpu_s = t_gpu - transfer_in;
  rep.phase2_s = HeteroPlatform::overlap(t_cpu, t_gpu - transfer_in);
  rep.flops = cpu_stats.flops + gpu_stats.flops;

  // Devices own disjoint row blocks, so "merging ... is straight-forward"
  // (paper §III-D); still, GPU tuples cross PCIe and the clock charges
  // assembling both blocks into one CSR.
  rep.transfer_out_s = platform.link().d2h().tuple_transfer_time(gpu_stats.tuples);
  rep.phase4_s = platform.cpu().merge_time(rep.merge.tuples_in);
  rep.total_s = HeteroPlatform::overlap(t_cpu, t_gpu) + rep.transfer_out_s +
                rep.phase4_s;
  return res;
}

RunResult run_unsorted_workqueue(const CsrMatrix& a, const CsrMatrix& b,
                                 const WorkQueueConfig& cfg,
                                 const HeteroPlatform& platform,
                                 ThreadPool& pool) {
  return run_baseline_workqueue("Unsorted-Workqueue", a, b, iota_rows(a.rows),
                                cfg, platform, pool);
}

std::vector<index_t> densest_first_rows(const CsrMatrix& a) {
  std::vector<index_t> rows = iota_rows(a.rows);
  std::stable_sort(rows.begin(), rows.end(), [&](index_t x, index_t y) {
    return a.row_nnz(x) > a.row_nnz(y);
  });
  return rows;
}

RunResult run_sorted_workqueue(const CsrMatrix& a, const CsrMatrix& b,
                               const WorkQueueConfig& cfg,
                               const HeteroPlatform& platform,
                               ThreadPool& pool) {
  return run_baseline_workqueue("Sorted-Workqueue", a, b,
                                densest_first_rows(a), cfg, platform, pool);
}

RunResult run_cpu_only_mkl(const CsrMatrix& a, const CsrMatrix& b,
                           const HeteroPlatform& platform, ThreadPool& pool) {
  check_operands(a, b);
  std::vector<ProductStats> row_stats;
  RunResult res = stored_product("MKL (CPU only)", a, b, pool, row_stats);
  RunReport& rep = res.report;
  const ProductStats stats = sum_rows(row_stats, 0, a.rows);
  const double ws_full = 12.0 * static_cast<double>(b.nnz());
  rep.phase2_cpu_s = platform.cpu().library_time(stats, ws_full);
  rep.phase2_s = rep.phase2_cpu_s;
  rep.flops = stats.flops;
  rep.total_s = rep.phase2_s;  // MKL builds CSR in place: no merge phase
  return res;
}

RunResult run_gpu_only_cusparse(const CsrMatrix& a, const CsrMatrix& b,
                                const HeteroPlatform& platform,
                                ThreadPool& pool) {
  check_operands(a, b);
  std::vector<ProductStats> row_stats;
  RunResult res =
      stored_product("cuSPARSE (GPU only)", a, b, pool, row_stats);
  RunReport& rep = res.report;
  rep.transfer_in_s = platform.link().h2d().operands_transfer_time(a, b);
  const ProductStats stats = sum_rows(row_stats, 0, a.rows);
  rep.phase2_gpu_s = platform.gpu().generic_time(stats);
  rep.phase2_s = rep.phase2_gpu_s;
  rep.flops = stats.flops;
  rep.transfer_out_s =
      platform.link().d2h().tuple_transfer_time(static_cast<std::int64_t>(res.c.nnz()));
  rep.total_s = rep.transfer_in_s + rep.phase2_s + rep.transfer_out_s;
  return res;
}

RunResult run_gpu_only_hipc_kernel(const CsrMatrix& a, const CsrMatrix& b,
                                   const HeteroPlatform& platform,
                                   ThreadPool& pool) {
  check_operands(a, b);
  std::vector<ProductStats> row_stats;
  RunResult res = stored_product("HiPC2012 GPU kernel (GPU only)", a, b, pool,
                                 row_stats);
  RunReport& rep = res.report;
  rep.transfer_in_s = platform.link().h2d().operands_transfer_time(a, b);
  const ProductStats stats = sum_rows(row_stats, 0, a.rows);
  rep.phase2_gpu_s = platform.gpu().kernel_time(stats);
  rep.phase2_s = rep.phase2_gpu_s;
  rep.flops = stats.flops;
  rep.transfer_out_s = platform.link().d2h().tuple_transfer_time(stats.tuples);
  rep.total_s = rep.transfer_in_s + rep.phase2_s + rep.transfer_out_s +
                platform.cpu().merge_time(rep.merge.tuples_in);
  return res;
}

}  // namespace hh
