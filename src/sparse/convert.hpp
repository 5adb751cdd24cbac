// Structural transforms.
#pragma once

#include "sparse/csr.hpp"

namespace hh {

/// Transpose (also CSR → CSC reinterpretation).
CsrMatrix transpose(const CsrMatrix& m);

/// The entries m(r, c) with keep(r, c) true; every other entry is dropped.
/// Shape and row numbering are preserved (matrices are never physically
/// split — paper §IV-A), and each row keeps its entries in order. The
/// benchmark's staged HH-CPU calls multiply such copies of A, one per
/// partial product (core/hh_stages.hpp).
template <class Keep>
CsrMatrix mask_entries(const CsrMatrix& m, Keep&& keep) {
  CsrMatrix out(m.rows, m.cols);
  for (index_t r = 0; r < m.rows; ++r) {
    for (offset_t k = m.indptr[r]; k < m.indptr[r + 1]; ++k) {
      if (!keep(r, m.indices[k])) continue;
      out.indices.push_back(m.indices[k]);
      out.values.push_back(m.values[k]);
    }
    out.indptr[r + 1] = static_cast<offset_t>(out.indices.size());
  }
  return out;
}

}  // namespace hh
