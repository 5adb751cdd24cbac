// Gustavson's row-row SpGEMM [Gustavson 1978] with a sparse accumulator
// (SPA): the "MKL-like" tuned CPU kernel that Fig. 6's CPU-only baseline
// models, and the one kernel that writes a stored product: multiply()'s
// reference, every baseline's C and the benchmark's staged run stores
// (core/hh_stages.hpp, over entry-masked copies of A). Each is priced from
// its own row sizes by product_row_stats (spgemm/spgemm.hpp). HH-CPU writes
// C with numeric_in_halves.
//
// Two passes: exact_row_nnz (spgemm/symbolic.hpp) counts each row of C, the
// counts are scanned into indptr, and a numeric pass writes each row's
// columns at its offset, each value summed from value_t{0} in A-entry then
// B-entry order, and orders them in place with order_run
// (spgemm/run_order.hpp): by sort when the row is short or its columns
// spread wide, else by one ascending scan of a column bitmap local to each
// block of rows.
#pragma once

#include "sparse/csr.hpp"
#include "util/thread_pool.hpp"

namespace hh {

/// Sequential two-phase (symbolic + numeric) Gustavson. Output rows sorted.
CsrMatrix gustavson_spgemm(const CsrMatrix& a, const CsrMatrix& b);

/// Row-parallel Gustavson over the given pool: both passes run over the
/// pool's row blocks. Deterministic: identical output to the sequential
/// version.
CsrMatrix gustavson_spgemm_parallel(const CsrMatrix& a, const CsrMatrix& b,
                                    ThreadPool& pool);

}  // namespace hh
