#include "sparse/row_stats.hpp"

#include <algorithm>

namespace hh {

std::vector<offset_t> row_nnz_vector(const CsrMatrix& m) {
  std::vector<offset_t> out(static_cast<std::size_t>(m.rows));
  for (index_t r = 0; r < m.rows; ++r) out[r] = m.row_nnz(r);
  return out;
}

RowStats row_stats(const CsrMatrix& m) {
  RowStats s;
  if (m.rows == 0) return s;
  s.min = m.row_nnz(0);
  for (index_t r = 0; r < m.rows; ++r) {
    const offset_t k = m.row_nnz(r);
    s.min = std::min(s.min, k);
    s.max = std::max(s.max, k);
    if (k == 0) s.empty_rows++;
  }
  s.mean = static_cast<double>(m.nnz()) / static_cast<double>(m.rows);
  return s;
}

index_t count_rows_at_least(const CsrMatrix& m, offset_t threshold) {
  index_t n = 0;
  for (index_t r = 0; r < m.rows; ++r) {
    if (m.row_nnz(r) >= threshold) ++n;
  }
  return n;
}

}  // namespace hh
