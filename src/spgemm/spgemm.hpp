// Public SpGEMM entry points: algorithm dispatch for full products, the
// per-row pricing of a stored product, the structure-only passes that price
// HH-CPU's masked partial products A_X × B_Y (X, Y ∈ {H, L}) at every
// threshold of a grid without splitting the matrices, and HH-CPU's numeric
// pass into C.
//
// All run symbolic then numeric (Liu & Vinter, arXiv:1504.05022; KKMEM,
// arXiv:1801.03065): a structure-only pass sizes every output row, so no
// buffer grows and no row is copied. One SPA numeric pass writes every C
// (spgemm/gustavson.cc). Every stored product (multiply(), the baselines,
// the benchmark's staged calls) is Gustavson's (spgemm/gustavson.hpp), its
// one-sided instantiation, priced from its own row sizes by
// product_row_stats. HH-CPU prices its four products from row_costs_at and
// writes C once with numeric_in_halves, the sided instantiation. The pass
// orders each row by sort when it is short or its columns spread wide, else
// by one ascending scan of a column bitmap (spgemm/run_order.hpp); both
// give the same row. Given C's column pattern, which the service keeps per
// proven operand structure, the known-pattern pass writes only C's values
// into it, with the same bits. Operands may hold unsorted and duplicate
// columns: every kernel sums duplicates and emits sorted rows, and every
// entry point runs check_operands first.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "sparse/csr.hpp"
#include "spgemm/workspace.hpp"
#include "util/thread_pool.hpp"

namespace hh {

enum class SpgemmKind {
  kGustavson,  // SPA accumulator (MKL-like tuned CPU kernel)
  kRowColumn,  // row-column formulation (demonstrably inferior, §II-A)
};

std::string to_string(SpgemmKind kind);

/// Throws CheckError unless a.cols == b.rows and both pass
/// validate(/*sorted=*/false).
void check_operands(const CsrMatrix& a, const CsrMatrix& b);

/// Full product with the selected algorithm, after check_operands. Both
/// kinds produce row-sorted CSR output with each duplicate column summed,
/// and a column that cancels to zero is kept. When every row of A has
/// strictly ascending columns, the two are bit-identical: each value is
/// summed from value_t{0} in A-entry then B-entry order.
CsrMatrix multiply(const CsrMatrix& a, const CsrMatrix& b, SpgemmKind kind,
                   ThreadPool& pool);

/// Cost-relevant statistics of a product or partial product, summed over
/// its rows. The simulated devices (src/device/) convert these into time;
/// they are exactly the first-order quantities the paper reasons about.
struct ProductStats {
  std::int64_t rows = 0;           // A rows processed (incl. empty results)
  std::int64_t a_nnz = 0;          // A entries visited (after B-mask filter)
  std::int64_t flops = 0;          // multiply-adds
  std::int64_t tuples = 0;         // output tuples emitted
  std::int64_t max_row_flops = 0;  // heaviest single row (GPU serialization)
  std::int64_t warp_alu = 0;       // Σ ceil(len(B_j)/32): warp-instruction count
  std::int64_t flops_shared = 0;   // flops of rows whose accumulator fits
                                   // GPU shared memory (out nnz <= kSharedCap)
  std::int64_t flops_global = 0;   // the rest: PartialOutput in global memory
  std::int64_t b_read_bytes = 0;   // Σ ceil(12·len(B_j)/32)·32: bytes the GPU
                                   // actually moves reading B rows (32-byte
                                   // L2 transactions on Kepler)

  // Inline: the dry runs sum one ProductStats per row per grid point.
  void accumulate(const ProductStats& o) {
    rows += o.rows;
    a_nnz += o.a_nnz;
    flops += o.flops;
    tuples += o.tuples;
    max_row_flops = std::max(max_row_flops, o.max_row_flops);
    warp_alu += o.warp_alu;
    flops_shared += o.flops_shared;
    flops_global += o.flops_global;
    b_read_bytes += o.b_read_bytes;
  }
};

/// Rows whose output fits in a per-warp shared-memory accumulator
/// (K20c: 48 KB/SMX across ~8 resident warps → 512 doubles + indices).
inline constexpr std::int64_t kSharedAccumCap = 512;

/// Runtime value of the shared-accumulator capacity used when classifying
/// rows into flops_shared/flops_global. Defaults to kSharedAccumCap; when
/// experiments run on scaled-down instances the simulated machine is shrunk
/// by the same factor (see device/platform.hpp) so the scaled instance
/// exercises the same shared-vs-global regime as the full-size one.
std::int64_t shared_accum_cap();
void set_shared_accum_cap(std::int64_t cap);

/// Each row's stats in a stored product, given c = A × B: row i is the
/// ProductStats of A(i, :) × B. Every entry a(i, j) is charged with the
/// length of B row j, and the row with its multiply-adds and c.row_nnz(i)
/// output columns: one walk over A, with no column markers. An empty row
/// is still charged as a row, so a caller that sums a product's stats sums
/// only the rows that product lists.
std::vector<ProductStats> product_row_stats(const CsrMatrix& a,
                                            const CsrMatrix& b,
                                            const CsrMatrix& c);

/// Structure-only estimate of A(rows ∈ a_rows, :) against the view of B
/// with b_mask[j] == b_mask_value (empty mask = all of B), with no numeric
/// work: flops/a_nnz/warp_alu/max_row_flops are exact; tuples and the
/// shared/global flops split use the flops upper bound per row. Used by
/// schedulers that must decide *before* computing (paper §III: a-priori work
/// volume is hard).
ProductStats estimate_partial_product(const CsrMatrix& a, const CsrMatrix& b,
                                      std::span<const index_t> a_rows,
                                      std::span<const std::uint8_t> b_mask,
                                      bool b_mask_value);

// Threshold grids. Point g of a grid splits a matrix as classify_rows(m,
// grid[g]) does: a row is H when its length is >= grid[g], L otherwise. The
// one-pass sweeps below take a grid that is non-empty, strictly ascending,
// has every t >= 1 and at most kMaxGridPoints points, and throw CheckError
// otherwise. threshold_grid() (core/threshold.hpp) always qualifies.
inline constexpr std::size_t kMaxGridPoints = 255;

/// Exact per-row costs at one threshold t, under both values of the B mask
/// classify_rows(b, t).is_high: by_mask[v][i] is row i of
/// product_row_stats(a_v, b, a_v × b), where a_v keeps the entries a(i, j)
/// with is_high[j] == v, so summing it over any row set gives that set's
/// stats exactly.
/// output_nnz is the number of distinct (r, c) pairs the tuples of both
/// masks merge into, Σ_i |columns of (A×B)(i,:)|.
struct MaskedRowCosts {
  std::array<std::vector<ProductStats>, 2> by_mask;
  std::int64_t output_nnz = 0;
};

/// MaskedRowCosts at every point of `grid` from one pool-parallel
/// structure-only pass (no values, no tuples): visit(g, costs) is called for
/// g = 0, 1, ... in order, with `costs` valid for grid[g] and only during
/// the call. An A entry (i, j) sits on the B_H side below the grid interval
/// holding len(B_j) and on the B_L side from there on; an output column
/// (i, c) counts on the B_H side up to the largest interval among its
/// contributing j and on the B_L side from the smallest. The pass stores
/// each row's costs as sparse changes, at most one per (row, interval) and
/// so at most nnz(A), and replays them in ascending t. The costs do not
/// depend on the pool size.
void row_costs_on_grid(
    const CsrMatrix& a, const CsrMatrix& b, std::span<const offset_t> grid,
    ThreadPool& pool,
    const std::function<void(std::size_t, const MaskedRowCosts&)>& visit);

/// The same pass at the one threshold t >= 1, returning the costs. A
/// non-empty `row_nnz` (a.rows slots) also receives each row's size in C:
/// row_nnz[i] is the number of distinct columns of (A × B)(i, :).
MaskedRowCosts row_costs_at(const CsrMatrix& a, const CsrMatrix& b, offset_t t,
                            ThreadPool& pool,
                            std::span<offset_t> row_nnz = {});

/// HH-CPU's numeric pass, the sided instantiation of the one SPA pass
/// (spgemm/gustavson.cc): C = A × B into `c` (a.rows × b.cols, no entries
/// yet), whose c.indptr[i + 1] holds row i's size on entry, as row_costs_at
/// leaves it. C's arrays are sized without a fill (sparse/csr.hpp). Each
/// row is written once, into its slot, by the worker that computes it, in
/// two halves: A(i, :) against the B rows j with b_side[j] == a_side[i],
/// then against the rest, each summed from value_t{0} in A-entry then
/// B-entry order, and each value is (value_t{0} + first) + second, what
/// merge_row_runs gives the halves' runs. SPAs come from `workspace` when
/// given. A row that does not fill its slot throws CheckError. Output does
/// not depend on the pool size.
void numeric_in_halves(const CsrMatrix& a, const CsrMatrix& b,
                       std::span<const std::uint8_t> a_side,
                       std::span<const std::uint8_t> b_side, CsrMatrix& c,
                       ThreadPool& pool, WorkspacePool* workspace = nullptr);

/// The known-pattern pass: numeric_in_halves into C's column pattern,
/// already known, e.g. CsrPattern::of a C that numeric_in_halves wrote for
/// operands of the same structure at any sides. C (a.rows × b.cols, no
/// entries yet) takes the pattern's row offsets and columns, and only its
/// values are computed: no column discovery, no run ordering. Each row's
/// halves still sum from value_t{0} in A-entry then B-entry order, so C
/// has numeric_in_halves' bits. The pattern is only read: the service
/// shares one among its requests (runtime/service.hpp).
void numeric_in_halves(const CsrMatrix& a, const CsrMatrix& b,
                       std::span<const std::uint8_t> a_side,
                       std::span<const std::uint8_t> b_side,
                       const CsrPattern& pattern, CsrMatrix& c,
                       ThreadPool& pool, WorkspacePool* workspace = nullptr);

/// The four products of the HH-CPU split at one threshold t, estimated:
/// by_side[x][y] is estimate_partial_product(a, b, the rows of A on side x,
/// classify_rows(b, t).is_high, y), with side 1 = H and 0 = L. Also the
/// sizes classify_rows(a, t) and classify_rows(b, t) report, per side.
struct SplitEstimate {
  std::array<std::array<ProductStats, 2>, 2> by_side;
  std::array<index_t, 2> a_rows{};
  std::array<index_t, 2> b_rows{};
  std::array<offset_t, 2> b_nnz{};
};

/// SplitEstimate at every point of `grid` from one serial walk over A: the
/// per-entry counters are binned by (A-row interval, B-row interval), and
/// each row walks the grid only for its per-row counters.
std::vector<SplitEstimate> estimate_splits_on_grid(
    const CsrMatrix& a, const CsrMatrix& b, std::span<const offset_t> grid);

}  // namespace hh
