// Phase IV of Algorithm HH-CPU: combine the partial products into the final
// CSR matrix (paper §III-D, Fig. 4). The simulated clock charges the paper's
// sort plus mark/scan/reduce (CpuSim::merge_time); numeric_in_halves
// (spgemm/spgemm.hpp) writes C with this merge's bits on the host.
//
// Benchmark shim: merge_row_runs is run_phase4's merge (core/hh_stages.hpp).
// It reads the run stores Gustavson's kernel writes
// (spgemm/gustavson.hpp): CsrMatrix parts of one shape, each row a strictly
// ascending run of columns. Every output row takes at most kMaxRunsPerRow
// non-empty runs (HH-CPU gives each A row one Phase II run and one Phase III
// run, on opposite B sides), so it merges in one linear walk, in parallel
// over rows: one count pass, one scan of the counts, one write pass straight
// into C.
//
// Contract, for every pool size:
//  - Order: the result is what a stable sort of all tuples by (r, c)
//    followed by a segmented sum gives, with the runs taken as tuples in
//    part order; rows are ascending, columns strictly ascending within a
//    row, empty and trailing rows kept.
//  - Sums: each (r, c) is summed from value_t{0} in input order, so the
//    output is bit-for-bit deterministic and a lone -0.0 comes out +0.0:
//    (0 + first) + second.
//  - Range: every run column is checked against the shape before use; an
//    out-of-range column throws CheckError, as do parts that differ in
//    shape, a run that is not strictly ascending, and a row with more than
//    kMaxRunsPerRow non-empty runs.
#pragma once

#include <span>

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

}  // namespace hh
