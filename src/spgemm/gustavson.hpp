// Gustavson's row-row SpGEMM [Gustavson 1978] with a sparse accumulator
// (SPA): the "MKL-like" tuned CPU kernel that Fig. 6's CPU-only baseline
// models, and the one SPA numeric pass that writes every C. Its one-sided
// instantiation, below, writes every stored product: multiply()'s
// reference, every baseline's C and the benchmark's staged run stores
// (core/hh_stages.hpp, over entry-masked copies of A), each priced from its
// own row sizes by product_row_stats. Its sided instantiation is HH-CPU's
// numeric_in_halves (spgemm/spgemm.hpp), which sums each row in two halves
// by B side; only that instantiation tests an entry's side.
//
// Two passes: exact_row_nnz (spgemm/symbolic.hpp) counts each row of C, the
// counts are scanned into indptr, C's arrays are sized without a fill
// (sparse/csr.hpp), and a numeric pass writes each row's columns at its
// offset, each value summed from value_t{0} in A-entry then B-entry order,
// and orders them in place with order_run (spgemm/run_order.hpp): by sort
// when the row is short or its columns spread wide, else by one ascending
// scan of the SPA's column bitmap. Both passes hand 64-row blocks out to
// the pool's workers as they free up; each worker keeps one B.cols-sized
// marker array for all its blocks in the count pass and one SpaWorkspace
// (spgemm/workspace.hpp) in the numeric pass, and writes the rows of C it
// takes, so their pages are first touched there. The sided instantiation
// has a known-pattern form, under the same blocks, workspaces and sizing:
// given C's column pattern (a CsrPattern), each worker copies a row's
// columns into C and sums into the accumulators at those columns with no
// marker test, then writes the values in pattern order, so a repeated
// service request skips column discovery and run ordering.
#pragma once

#include "sparse/csr.hpp"
#include "util/thread_pool.hpp"

namespace hh {

/// Sequential two-phase (symbolic + numeric) Gustavson on the calling
/// thread, one SPA for every row. Output rows sorted.
CsrMatrix gustavson_spgemm(const CsrMatrix& a, const CsrMatrix& b);

/// Row-parallel Gustavson over the given pool: both passes run over 64-row
/// blocks drawn by the pool's workers. Deterministic: identical output to
/// the sequential version. A row that does not fill its counted slot throws
/// CheckError.
CsrMatrix gustavson_spgemm_parallel(const CsrMatrix& a, const CsrMatrix& b,
                                    ThreadPool& pool);

}  // namespace hh
