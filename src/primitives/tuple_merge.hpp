// Phase IV of Algorithm HH-CPU: combine the ⟨r, c, v⟩ tuples produced by the
// four partial products into the final CSR matrix (paper §III-D, Fig. 4).
//
// The host merges by row, not by global key sort: the tuples are bucketed
// by row (one counting pass and one scatter), and each row's bucket is
// split into its non-decreasing column runs, which are merged pairwise and
// summed. Phase IV hands every output row at most two runs (one per B
// side), so a row costs one linear merge. The simulated clock still charges
// the paper's sort plus mark/scan/reduce (CpuSim::merge_time).
//
// Contract, for every pool size:
//  - Order: the result is what a stable sort of all tuples by (r, c)
//    followed by a segmented sum gives; rows are ascending, columns
//    strictly ascending within a row, empty and trailing rows kept.
//  - Sums: each (r, c) is summed from value_t{0} in input order, so the
//    output is bit-for-bit deterministic and a lone -0.0 comes out +0.0.
//  - Parts: the parts overload merges its parts as if concatenated in list
//    order, without building the concatenation; every part must have the
//    same shape.
//  - Range: every tuple's row and column is checked against the shape
//    before use; an out-of-range tuple throws CheckError.
#pragma once

#include <span>

#include "sparse/coo.hpp"
#include "sparse/csr.hpp"
#include "util/thread_pool.hpp"

namespace hh {

/// Cost-relevant statistics of a merge, consumed by the device models.
struct MergeStats {
  std::int64_t tuples_in = 0;   // tuples before combining
  std::int64_t tuples_out = 0;  // distinct (r, c) pairs
};

/// Sort tuples by (r, c), sum like-tuples, build CSR. Deterministic.
CsrMatrix merged_coo_to_csr(const CooMatrix& coo, MergeStats* stats = nullptr);
CsrMatrix merged_coo_to_csr(const CooMatrix& coo, ThreadPool& pool,
                            MergeStats* stats = nullptr);

/// Merge `parts` (at least one, all of one shape) as if concatenated in
/// list order. The parts are read in place.
CsrMatrix merged_coo_to_csr(std::span<const CooMatrix* const> parts,
                            ThreadPool& pool, MergeStats* stats = nullptr);

}  // namespace hh
