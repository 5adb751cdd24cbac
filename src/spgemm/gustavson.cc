#include "spgemm/gustavson.hpp"

#include <cstdint>
#include <vector>

#include "spgemm/run_order.hpp"
#include "spgemm/symbolic.hpp"
#include "util/check.hpp"

namespace hh {
namespace {

// Scans the row counts that c.indptr[i + 1] holds for each row i into row
// offsets, and sizes C's arrays to match.
void size_output(CsrMatrix& c) {
  for (index_t i = 0; i < c.rows; ++i) c.indptr[i + 1] += c.indptr[i];
  c.indices.resize(static_cast<std::size_t>(c.nnz()));
  c.values.resize(static_cast<std::size_t>(c.nnz()));
}

// Numeric pass for rows [r0, r1): SPA accumulate, write each row's columns
// in first-touch order at its final offset, then order them in place (by
// sort or by a column bitmap local to the call). indptr must already hold
// the exact row offsets.
void numeric_rows(const CsrMatrix& a, const CsrMatrix& b, CsrMatrix& c,
                  index_t r0, index_t r1) {
  std::vector<value_t> acc(static_cast<std::size_t>(b.cols), value_t{0});
  std::vector<index_t> marker(static_cast<std::size_t>(b.cols), -1);
  std::vector<std::uint64_t> bits((static_cast<std::size_t>(b.cols) + 63) /
                                  64);
  for (index_t i = r0; i < r1; ++i) {
    index_t* cols = c.indices.data() + c.indptr[i];
    std::size_t n = 0;
    for (offset_t k = a.indptr[i]; k < a.indptr[i + 1]; ++k) {
      const index_t j = a.indices[k];
      const value_t av = a.values[k];
      for (offset_t l = b.indptr[j]; l < b.indptr[j + 1]; ++l) {
        const index_t col = b.indices[l];
        if (marker[col] != i) {
          marker[col] = i;
          acc[col] = value_t{0};
          cols[n++] = col;
        }
        acc[col] += av * b.values[l];
      }
    }
    HH_DCHECK(static_cast<offset_t>(n) == c.indptr[i + 1] - c.indptr[i]);
    order_run(cols, n, acc.data(), bits.data(),
              c.values.data() + c.indptr[i]);
  }
}

}  // namespace

CsrMatrix gustavson_spgemm(const CsrMatrix& a, const CsrMatrix& b) {
  HH_CHECK_MSG(a.cols == b.rows, "incompatible shapes for product");
  CsrMatrix c(a.rows, b.cols);
  exact_row_nnz(a, b, 0, a.rows, c.indptr.data() + 1);
  size_output(c);
  numeric_rows(a, b, c, 0, a.rows);
  return c;
}

CsrMatrix gustavson_spgemm_parallel(const CsrMatrix& a, const CsrMatrix& b,
                                    ThreadPool& pool) {
  HH_CHECK_MSG(a.cols == b.rows, "incompatible shapes for product");
  CsrMatrix c(a.rows, b.cols);
  pool.parallel_for(a.rows, [&](std::int64_t lo, std::int64_t hi) {
    exact_row_nnz(a, b, static_cast<index_t>(lo), static_cast<index_t>(hi),
                  c.indptr.data() + 1);
  });
  size_output(c);
  pool.parallel_for(a.rows, [&](std::int64_t lo, std::int64_t hi) {
    numeric_rows(a, b, c, static_cast<index_t>(lo), static_cast<index_t>(hi));
  });
  return c;
}

}  // namespace hh
