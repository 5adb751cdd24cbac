// Phase IV of Algorithm HH-CPU: combine the partial products into the final
// CSR matrix (paper §III-D, Fig. 4). The simulated clock charges the paper's
// sort plus mark/scan/reduce (CpuSim::merge_time); the host merges by row.
//
// merge_row_runs is the HH-CPU path. Its inputs are the run stores the
// partial-product kernel writes (spgemm/spgemm.hpp): CsrMatrix parts of one
// shape, each row a strictly ascending run of columns. Every output row
// takes at most kMaxRunsPerRow non-empty runs (HH-CPU gives each A row one
// Phase II run and one Phase III run, on opposite B sides), so it merges in
// one linear walk, in parallel over rows: one count pass, one scan of the
// counts, one write pass straight into C.
//
// merged_coo_to_csr merges free-form ⟨r, c, v⟩ tuples (expand-sort-contract
// and COO conversion): the tuples are bucketed by row (one counting pass and
// one scatter), and each row's bucket is sorted stably by column and summed,
// in parallel over rows.
//
// Contract of both, for every pool size:
//  - Order: the result is what a stable sort of all tuples by (r, c)
//    followed by a segmented sum gives, with the runs of merge_row_runs
//    taken as tuples in part order; rows are ascending, columns strictly
//    ascending within a row, empty and trailing rows kept.
//  - Sums: each (r, c) is summed from value_t{0} in input order, so the
//    output is bit-for-bit deterministic and a lone -0.0 comes out +0.0.
//    For merge_row_runs that is (0 + first) + second.
//  - Range: every tuple's row and column is checked against the shape
//    before use; an out-of-range tuple throws CheckError. merge_row_runs
//    also throws when the parts differ in shape, a run is not strictly
//    ascending, or a row has more than kMaxRunsPerRow non-empty runs.
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

/// Non-empty runs merge_row_runs accepts per output row.
inline constexpr int kMaxRunsPerRow = 2;

/// Merge the row runs of `parts` (at least one, all of one shape) into C,
/// reading the parts in place.
CsrMatrix merge_row_runs(std::span<const CsrMatrix* const> parts,
                         ThreadPool& pool, MergeStats* stats = nullptr);

/// Sort tuples by (r, c), sum like-tuples, build CSR. Deterministic.
CsrMatrix merged_coo_to_csr(const CooMatrix& coo, MergeStats* stats = nullptr);
CsrMatrix merged_coo_to_csr(const CooMatrix& coo, ThreadPool& pool,
                            MergeStats* stats = nullptr);

}  // namespace hh
