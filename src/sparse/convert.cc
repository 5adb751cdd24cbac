#include "sparse/convert.hpp"

namespace hh {

CsrMatrix transpose(const CsrMatrix& m) {
  CsrMatrix t(m.cols, m.rows);
  const auto nz = static_cast<std::size_t>(m.nnz());
  t.indices.resize(nz);
  t.values.resize(nz);
  // Counting pass.
  for (std::size_t k = 0; k < nz; ++k) t.indptr[m.indices[k] + 1]++;
  for (index_t c = 0; c < m.cols; ++c) t.indptr[c + 1] += t.indptr[c];
  // Scatter pass: iterating rows in order makes each output row sorted.
  std::vector<offset_t> cursor(t.indptr.begin(), t.indptr.end() - 1);
  for (index_t r = 0; r < m.rows; ++r) {
    for (offset_t k = m.indptr[r]; k < m.indptr[r + 1]; ++k) {
      const offset_t dst = cursor[m.indices[k]]++;
      t.indices[dst] = r;
      t.values[dst] = m.values[k];
    }
  }
  return t;
}

}  // namespace hh
