// Public SpGEMM entry points: algorithm dispatch for full products, and the
// masked partial-product kernel used by the heterogeneous algorithms to
// compute A_X × B_Y (X, Y ∈ {H, L}) without physically splitting matrices.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "sparse/coo.hpp"
#include "sparse/csr.hpp"
#include "spgemm/workspace.hpp"
#include "util/thread_pool.hpp"

namespace hh {

enum class SpgemmKind {
  kGustavson,  // SPA accumulator (MKL-like tuned CPU kernel)
  kHash,       // hash accumulator
  kHeap,       // k-way merge
  kRowColumn,  // row-column formulation (demonstrably inferior, §II-A)
};

std::string to_string(SpgemmKind kind);

/// Full product with the selected algorithm. All kinds produce identical,
/// row-sorted CSR output.
CsrMatrix multiply(const CsrMatrix& a, const CsrMatrix& b, SpgemmKind kind,
                   ThreadPool& pool);

/// Cost-relevant statistics of one partial-product kernel invocation.
/// The simulated devices (src/device/) convert these into time; they are
/// exactly the first-order quantities the paper reasons about.
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

  void accumulate(const ProductStats& o);
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

/// Compute tuples of A(rows ∈ a_rows, :) × B restricted to contributions
/// through rows j of B with b_mask[j] == b_mask_value (empty mask = all j).
/// Tuples are emitted row-sorted and column-sorted, deterministically.
/// When `workspace` is non-null the SPA accumulators and tuple buffers are
/// drawn from (and returned to) the pool instead of heap-allocated per call;
/// the returned CooMatrix is pool-backed and may be handed back via
/// WorkspacePool::release_coo once consumed. Output is bit-identical either
/// way. A non-empty `row_stats` (one slot per a_rows entry) receives each
/// row's own stats: row_stats[k] is what the call reports for {a_rows[k]}.
CooMatrix partial_product_tuples(const CsrMatrix& a, const CsrMatrix& b,
                                 std::span<const index_t> a_rows,
                                 std::span<const std::uint8_t> b_mask,
                                 bool b_mask_value, ThreadPool& pool,
                                 ProductStats* stats = nullptr,
                                 WorkspacePool* workspace = nullptr,
                                 std::span<ProductStats> row_stats = {});

/// Structure-only estimate of the same invocation (no numeric work):
/// flops/a_nnz/warp_alu/max_row_flops are exact; tuples and the shared/global
/// flops split use the flops upper bound per row. Used by schedulers that
/// must decide *before* computing (paper §III: a-priori work volume is hard).
ProductStats estimate_partial_product(const CsrMatrix& a, const CsrMatrix& b,
                                      std::span<const index_t> a_rows,
                                      std::span<const std::uint8_t> b_mask,
                                      bool b_mask_value);

/// Exact per-row costs of partial_product_tuples under both values of a
/// mask, from one structure-only pass (no values, no tuples):
/// by_mask[v][i] is the ProductStats partial_product_tuples(a, b, {i},
/// b_mask, v) reports, so summing it over any row set gives that set's stats
/// exactly. output_nnz is the number of distinct (r, c) pairs the tuples of
/// both masks merge into, Σ_i |columns of (A×B)(i,:)|.
struct MaskedRowCosts {
  std::array<std::vector<ProductStats>, 2> by_mask;
  std::int64_t output_nnz = 0;
};

/// `b_mask` has one flag per row of B. Pool-parallel over A's rows with
/// per-worker column markers; the result does not depend on the pool size.
MaskedRowCosts masked_row_costs(const CsrMatrix& a, const CsrMatrix& b,
                                std::span<const std::uint8_t> b_mask,
                                ThreadPool& pool);

}  // namespace hh
