// Compressed Sparse Row matrix — the library's primary format.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "sparse/types.hpp"

namespace hh {

/// CSR matrix. Invariants (checked by validate()):
///  - indptr.size() == rows + 1, indptr[0] == 0, non-decreasing
///  - indices/values have indptr[rows] entries, indices in [0, cols)
/// Column indices within a row are kept sorted by all library kernels.
struct CsrMatrix {
  index_t rows = 0;
  index_t cols = 0;
  std::vector<offset_t> indptr;  // size rows+1
  std::vector<index_t> indices;  // size nnz
  std::vector<value_t> values;   // size nnz

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

/// Build a CSR matrix from (row, col, value) triplets; duplicates are summed.
CsrMatrix csr_from_triplets(index_t rows, index_t cols,
                            std::span<const index_t> tr,
                            std::span<const index_t> tc,
                            std::span<const value_t> tv);

/// Identity matrix of size n.
CsrMatrix csr_identity(index_t n);

}  // namespace hh
