#include "core/baselines.hpp"

#include <algorithm>
#include <numeric>

#include "primitives/tuple_merge.hpp"
#include "sched/static_partition.hpp"
#include "spgemm/spgemm.hpp"
#include "util/check.hpp"

namespace hh {
namespace {

std::vector<index_t> iota_rows(index_t n) {
  std::vector<index_t> rows(static_cast<std::size_t>(n));
  std::iota(rows.begin(), rows.end(), index_t{0});
  return rows;
}

// C from a single run store, through the Phase IV merge.
CsrMatrix merge_one_store(const CsrMatrix& runs, ThreadPool& pool,
                          MergeStats* stats) {
  const CsrMatrix* parts[] = {&runs};
  return merge_row_runs(parts, pool, stats);
}

// §V-C: one queue over `rows` of A against all of B, CPU from the front
// and GPU from the back, merged through Phase IV.
RunResult run_baseline_workqueue(const char* name, const CsrMatrix& a,
                                 const CsrMatrix& b,
                                 std::span<const index_t> rows,
                                 const WorkQueueConfig& cfg,
                                 const HeteroPlatform& platform,
                                 ThreadPool& pool) {
  const double transfer_in = platform.link().h2d().operands_transfer_time(a, b);
  const QueuePart parts[] = {{{rows, {}, true},
                              12.0 * static_cast<double>(b.nnz())}};
  WorkQueueResult queue = run_workqueue(a, b, parts, cfg, /*cpu_start=*/0.0,
                                        /*gpu_start=*/transfer_in, platform,
                                        pool);
  RunResult res;
  RunReport& rep = res.report;
  rep.algorithm = name;
  rep.transfer_in_s = transfer_in;
  rep.phase3_cpu_s = queue.cpu_busy;
  rep.phase3_gpu_s = queue.gpu_busy;
  rep.phase3_s = HeteroPlatform::overlap(queue.cpu_busy, queue.gpu_busy);
  rep.queue_cpu_units = queue.cpu_units;
  rep.queue_gpu_units = queue.gpu_units;
  rep.flops = queue.cpu_stats.flops + queue.gpu_stats.flops;

  rep.transfer_out_s =
      platform.link().d2h().tuple_transfer_time(queue.gpu_stats.tuples);
  res.c = merge_one_store(queue.tuples, pool, &rep.merge);
  rep.phase4_s = platform.cpu().merge_time(rep.merge.tuples_in);
  rep.output_nnz = res.c.nnz();
  rep.total_s = queue.end_time() + rep.transfer_out_s + rep.phase4_s;
  return res;
}

}  // namespace

RunResult run_hipc2012(const CsrMatrix& a, const CsrMatrix& b,
                       const HeteroPlatform& platform, ThreadPool& pool) {
  HH_CHECK_MSG(a.cols == b.rows, "incompatible shapes for product");
  RunResult res;
  RunReport& rep = res.report;
  rep.algorithm = "HiPC2012";

  const StaticSplit split = balance_static_split(a, b, platform);
  const double transfer_in = platform.link().h2d().operands_transfer_time(a, b);
  rep.transfer_in_s = transfer_in;

  std::vector<index_t> all = iota_rows(a.rows);
  const std::span<const index_t> cpu_rows(all.data(),
                                          static_cast<std::size_t>(split.split_row));
  const std::span<const index_t> gpu_rows(
      all.data() + split.split_row,
      static_cast<std::size_t>(a.rows - split.split_row));

  ProductStats cpu_stats, gpu_stats;
  const CsrMatrix cpu_runs =
      partial_product_runs(a, b, cpu_rows, {}, true, pool, &cpu_stats);
  const CsrMatrix gpu_runs =
      partial_product_runs(a, b, gpu_rows, {}, true, pool, &gpu_stats);

  const double ws_full = 12.0 * static_cast<double>(b.nnz());
  const double t_cpu = platform.cpu().kernel_time(cpu_stats, ws_full, true);
  const double t_gpu = transfer_in + platform.gpu().kernel_time(gpu_stats);
  rep.phase2_cpu_s = t_cpu;
  rep.phase2_gpu_s = t_gpu - transfer_in;
  rep.phase2_s = HeteroPlatform::overlap(t_cpu, t_gpu - transfer_in);
  rep.flops = cpu_stats.flops + gpu_stats.flops;

  // Devices own disjoint row blocks, so "merging ... is straight-forward"
  // (paper §III-D); still, GPU tuples cross PCIe and both blocks are
  // assembled into one CSR.
  rep.transfer_out_s = platform.link().d2h().tuple_transfer_time(gpu_stats.tuples);
  const CsrMatrix* parts[] = {&cpu_runs, &gpu_runs};
  res.c = merge_row_runs(parts, pool, &rep.merge);
  rep.phase4_s = platform.cpu().merge_time(rep.merge.tuples_in);
  rep.output_nnz = res.c.nnz();
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
  RunResult res;
  RunReport& rep = res.report;
  rep.algorithm = "MKL (CPU only)";
  const std::vector<index_t> rows = iota_rows(a.rows);
  ProductStats stats;
  const CsrMatrix runs =
      partial_product_runs(a, b, rows, {}, true, pool, &stats);
  const double ws_full = 12.0 * static_cast<double>(b.nnz());
  rep.phase2_cpu_s = platform.cpu().library_time(stats, ws_full);
  rep.phase2_s = rep.phase2_cpu_s;
  rep.flops = stats.flops;
  res.c = merge_one_store(runs, pool, &rep.merge);
  rep.output_nnz = res.c.nnz();
  rep.total_s = rep.phase2_s;  // MKL builds CSR in place: no merge phase
  return res;
}

RunResult run_gpu_only_cusparse(const CsrMatrix& a, const CsrMatrix& b,
                                const HeteroPlatform& platform,
                                ThreadPool& pool) {
  RunResult res;
  RunReport& rep = res.report;
  rep.algorithm = "cuSPARSE (GPU only)";
  rep.transfer_in_s = platform.link().h2d().operands_transfer_time(a, b);
  const std::vector<index_t> rows = iota_rows(a.rows);
  ProductStats stats;
  const CsrMatrix runs =
      partial_product_runs(a, b, rows, {}, true, pool, &stats);
  rep.phase2_gpu_s = platform.gpu().generic_time(stats);
  rep.phase2_s = rep.phase2_gpu_s;
  rep.flops = stats.flops;
  res.c = merge_one_store(runs, pool, &rep.merge);
  rep.transfer_out_s =
      platform.link().d2h().tuple_transfer_time(static_cast<std::int64_t>(res.c.nnz()));
  rep.output_nnz = res.c.nnz();
  rep.total_s = rep.transfer_in_s + rep.phase2_s + rep.transfer_out_s;
  return res;
}

RunResult run_gpu_only_hipc_kernel(const CsrMatrix& a, const CsrMatrix& b,
                                   const HeteroPlatform& platform,
                                   ThreadPool& pool) {
  RunResult res;
  RunReport& rep = res.report;
  rep.algorithm = "HiPC2012 GPU kernel (GPU only)";
  rep.transfer_in_s = platform.link().h2d().operands_transfer_time(a, b);
  const std::vector<index_t> rows = iota_rows(a.rows);
  ProductStats stats;
  const CsrMatrix runs =
      partial_product_runs(a, b, rows, {}, true, pool, &stats);
  rep.phase2_gpu_s = platform.gpu().kernel_time(stats);
  rep.phase2_s = rep.phase2_gpu_s;
  rep.flops = stats.flops;
  res.c = merge_one_store(runs, pool, &rep.merge);
  rep.transfer_out_s = platform.link().d2h().tuple_transfer_time(stats.tuples);
  rep.output_nnz = res.c.nnz();
  rep.total_s = rep.transfer_in_s + rep.phase2_s + rep.transfer_out_s +
                platform.cpu().merge_time(rep.merge.tuples_in);
  return res;
}

}  // namespace hh
