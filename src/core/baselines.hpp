// Every comparison algorithm in the paper's evaluation:
//  - HiPC2012 [13]: static flops-balanced CPU/GPU split, density-unaware
//    (the "best known heterogeneous algorithm" HH-CPU is measured against)
//  - Unsorted-Workqueue / Sorted-Workqueue (paper §V-C)
//  - CPU-only "MKL" and GPU-only "cuSPARSE" library baselines (Fig. 6)
// All return Gustavson's product (spgemm/gustavson.hpp) as C, with a
// simulated-time report priced from C's own row sizes (product_row_stats).
#pragma once

#include <vector>

#include "core/report.hpp"
#include "device/platform.hpp"
#include "sched/workqueue.hpp"
#include "sparse/csr.hpp"
#include "util/thread_pool.hpp"

namespace hh {

/// [13]: one static split of A's rows by a-priori estimated cost; each
/// device multiplies its block against all of B.
RunResult run_hipc2012(const CsrMatrix& a, const CsrMatrix& b,
                       const HeteroPlatform& platform, ThreadPool& pool);

/// §V-C: workqueue over rows of A in natural order, full B, CPU from the
/// front and GPU from the back.
RunResult run_unsorted_workqueue(const CsrMatrix& a, const CsrMatrix& b,
                                 const WorkQueueConfig& cfg,
                                 const HeteroPlatform& platform,
                                 ThreadPool& pool);

/// The Sorted-Workqueue's row order: A's rows by nnz, densest first, ties
/// in natural order (the CPU end gets the dense rows, the GPU end the sparse
/// ones — the empirically best orientation, matching the paper's use of
/// best-possible configurations for the comparison algorithms).
std::vector<index_t> densest_first_rows(const CsrMatrix& a);

/// §V-C: same, but over densest_first_rows(a).
RunResult run_sorted_workqueue(const CsrMatrix& a, const CsrMatrix& b,
                               const WorkQueueConfig& cfg,
                               const HeteroPlatform& platform,
                               ThreadPool& pool);

/// Intel MKL-like tuned CPU-only SpGEMM (no heterogeneous pieces at all).
RunResult run_cpu_only_mkl(const CsrMatrix& a, const CsrMatrix& b,
                           const HeteroPlatform& platform, ThreadPool& pool);

/// cuSPARSE-like generic GPU-only SpGEMM (expand–sort–contract kernel),
/// including both transfers.
RunResult run_gpu_only_cusparse(const CsrMatrix& a, const CsrMatrix& b,
                                const HeteroPlatform& platform,
                                ThreadPool& pool);

/// GPU-only run of the [13] warp-per-row kernel (the t → ∞ endpoint of the
/// Fig. 8 threshold sweep).
RunResult run_gpu_only_hipc_kernel(const CsrMatrix& a, const CsrMatrix& b,
                                   const HeteroPlatform& platform,
                                   ThreadPool& pool);

}  // namespace hh
