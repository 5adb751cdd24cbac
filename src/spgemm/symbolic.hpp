// Symbolic (structure-only) analysis of a sparse product C = A × B.
//
// flops(i) = Σ_{j ∈ A(i,:)} nnz(B(j,:)) — the multiply-add count of the
// row-row formulation for output row i. The paper (§I) stresses that exact
// per-row output size is as hard as the multiplication itself; these cheap
// upper bounds are what schedulers can actually use a-priori.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sparse/csr.hpp"

namespace hh {

/// Multiply-add count per row of A (also an upper bound on row nnz of C).
std::vector<offset_t> row_flops(const CsrMatrix& a, const CsrMatrix& b);

/// Total flops of the full product. Accumulated in an explicit 64-bit type:
/// scale-free products blow past 2^31 intermediate products long before
/// their operands are large, so the total must not inherit a (possibly
/// narrower) offset_t width.
std::int64_t total_flops(const CsrMatrix& a, const CsrMatrix& b);

/// Exact nnz per row of C (runs a structure-only SPA pass; costs ~ flops).
std::vector<offset_t> exact_row_nnz(const CsrMatrix& a, const CsrMatrix& b);

/// The same count for rows [r0, r1) of C only, into out[r0, r1), with the
/// caller's column markers: `marker` has b.cols entries, none holding a row
/// of [r0, r1) on entry (all -1 when fresh), and each column keeps the last
/// row that reached it. One array therefore serves every call a thread
/// makes over disjoint row ranges; calls with their own arrays may run
/// concurrently.
void exact_row_nnz(const CsrMatrix& a, const CsrMatrix& b, index_t r0,
                   index_t r1, std::span<index_t> marker, offset_t* out);

}  // namespace hh
