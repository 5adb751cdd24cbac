#include "spgemm/symbolic.hpp"

#include "util/check.hpp"

namespace hh {

std::vector<offset_t> row_flops(const CsrMatrix& a, const CsrMatrix& b) {
  HH_CHECK_MSG(a.cols == b.rows, "incompatible shapes for product");
  std::vector<offset_t> flops(static_cast<std::size_t>(a.rows), 0);
  for (index_t i = 0; i < a.rows; ++i) {
    offset_t f = 0;
    for (offset_t k = a.indptr[i]; k < a.indptr[i + 1]; ++k) {
      f += b.row_nnz(a.indices[k]);
    }
    flops[i] = f;
  }
  return flops;
}

std::int64_t total_flops(const CsrMatrix& a, const CsrMatrix& b) {
  std::int64_t total = 0;
  for (const offset_t f : row_flops(a, b)) {
    total += static_cast<std::int64_t>(f);
  }
  return total;
}

std::vector<offset_t> exact_row_nnz(const CsrMatrix& a, const CsrMatrix& b) {
  std::vector<offset_t> out(static_cast<std::size_t>(a.rows), 0);
  std::vector<index_t> marker(static_cast<std::size_t>(b.cols), -1);
  exact_row_nnz(a, b, 0, a.rows, marker, out.data());
  return out;
}

void exact_row_nnz(const CsrMatrix& a, const CsrMatrix& b, index_t r0,
                   index_t r1, std::span<index_t> marker, offset_t* out) {
  HH_CHECK_MSG(a.cols == b.rows, "incompatible shapes for product");
  HH_CHECK(marker.size() == static_cast<std::size_t>(b.cols));
  for (index_t i = r0; i < r1; ++i) {
    offset_t count = 0;
    for (offset_t k = a.indptr[i]; k < a.indptr[i + 1]; ++k) {
      const index_t j = a.indices[k];
      for (offset_t l = b.indptr[j]; l < b.indptr[j + 1]; ++l) {
        const index_t c = b.indices[l];
        if (marker[c] != i) {
          marker[c] = i;
          ++count;
        }
      }
    }
    out[i] = count;
  }
}

}  // namespace hh
