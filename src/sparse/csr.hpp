// Compressed Sparse Row matrix — the library's primary format.
#pragma once

#include <memory>
#include <new>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "sparse/types.hpp"

namespace hh {

/// std::allocator that default-initialises on a bare construct: resize()
/// leaves new elements of a trivial type unwritten instead of zeroing them,
/// so a kernel that sizes its output once and writes every slot from the
/// pool's workers pays no serial fill, and each page is first touched by
/// the worker that writes it. Copies and fills (resize(n, v), assign) are
/// unchanged: a construct with arguments is allocator_traits' default.
template <class T>
struct DefaultInitAllocator : std::allocator<T> {
  DefaultInitAllocator() = default;
  template <class U>
  DefaultInitAllocator(const DefaultInitAllocator<U>&) noexcept {}

  template <class U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
};

/// A vector whose resize() does not value-initialise (DefaultInitAllocator).
template <class T>
using DefaultInitVector = std::vector<T, DefaultInitAllocator<T>>;

/// CSR matrix. Invariants (checked by validate()):
///  - indptr.size() == rows + 1, indptr[0] == 0, non-decreasing
///  - indices/values have indptr[rows] entries, indices in [0, cols)
/// Column indices within a row are kept sorted by all library kernels.
/// indices and values are not value-initialised on resize(): a writer that
/// sizes them must write every slot (each kernel that does so checks it).
struct CsrMatrix {
  index_t rows = 0;
  index_t cols = 0;
  std::vector<offset_t> indptr;        // size rows+1
  DefaultInitVector<index_t> indices;  // size nnz
  DefaultInitVector<value_t> values;   // size nnz

  CsrMatrix() : indptr(1, 0) {}
  CsrMatrix(index_t rows, index_t cols)
      : rows(rows), cols(cols), indptr(static_cast<std::size_t>(rows) + 1, 0) {}

  offset_t nnz() const { return indptr.empty() ? 0 : indptr.back(); }

  offset_t row_nnz(index_t r) const { return indptr[r + 1] - indptr[r]; }

  std::span<const index_t> row_indices(index_t r) const {
    return {indices.data() + indptr[r],
            static_cast<std::size_t>(row_nnz(r))};
  }
  std::span<const value_t> row_values(index_t r) const {
    return {values.data() + indptr[r], static_cast<std::size_t>(row_nnz(r))};
  }

  /// The first violated invariant in words (e.g. "column 4 out of range in
  /// row 1"), or "" when there is none: one walk over the arrays. `sorted`
  /// additionally requires strictly increasing column indices within each
  /// row.
  std::string defect(bool sorted = true) const;

  /// Throws CheckError naming defect(sorted) when it is not empty.
  void validate(bool sorted = true) const;

  /// Sort column indices (and values) within every row.
  void sort_rows();

  /// Total bytes of the CSR arrays (what a device transfer must move).
  std::size_t byte_size() const {
    return indptr.size() * sizeof(offset_t) +
           indices.size() * sizeof(index_t) + values.size() * sizeof(value_t);
  }

  /// Human-readable one-line summary, e.g. "1000x1000, nnz=5000".
  std::string summary() const;
};

/// A CSR matrix's sparsity pattern, copied without its values: column
/// count, row offsets and column indices. The service's symbolic cache
/// (runtime/service.hpp) keeps its operands' patterns, to prove a hit byte
/// for byte, and C's, into which a repeated product writes only values
/// (numeric_in_halves, spgemm/spgemm.hpp).
struct CsrPattern {
  index_t cols = 0;
  std::vector<offset_t> indptr;
  DefaultInitVector<index_t> indices;

  static CsrPattern of(const CsrMatrix& m) {
    return {m.cols, m.indptr, m.indices};
  }
  offset_t nnz() const { return indptr.empty() ? 0 : indptr.back(); }
  /// Whether m has this pattern, compared byte for byte.
  bool matches(const CsrMatrix& m) const {
    return m.cols == cols && m.indptr == indptr && m.indices == indices;
  }
};

/// Build a CSR matrix from (row, col, value) triplets; duplicates are summed.
CsrMatrix csr_from_triplets(index_t rows, index_t cols,
                            std::span<const index_t> tr,
                            std::span<const index_t> tc,
                            std::span<const value_t> tv);

/// Identity matrix of size n.
CsrMatrix csr_identity(index_t n);

}  // namespace hh
