#include "spgemm/gustavson.hpp"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "spgemm/run_order.hpp"
#include "spgemm/symbolic.hpp"
#include "util/check.hpp"

namespace hh {
namespace {

// Rows a worker takes at a time in each pass.
constexpr std::size_t kRowBlock = 64;

// One worker's numeric scratch, b.cols entries each, kept across its
// blocks: the accumulator, the last row that reached each column (no row
// is visited twice, so an earlier row's mark never matches), and the
// column bitmap order_run leaves all clear.
struct NumericScratch {
  explicit NumericScratch(index_t cols)
      : acc(static_cast<std::size_t>(cols)),
        marker(static_cast<std::size_t>(cols), -1),
        bits((static_cast<std::size_t>(cols) + 63) / 64) {}

  std::vector<value_t> acc;
  std::vector<index_t> marker;
  std::vector<std::uint64_t> bits;
};

// Scans the row counts that c.indptr[i + 1] holds for each row i into row
// offsets, and sizes C's arrays to match, unwritten (sparse/csr.hpp).
void size_output(CsrMatrix& c) {
  for (index_t i = 0; i < c.rows; ++i) c.indptr[i + 1] += c.indptr[i];
  c.indices.resize(static_cast<std::size_t>(c.nnz()));
  c.values.resize(static_cast<std::size_t>(c.nnz()));
}

// Numeric pass for rows [r0, r1): SPA accumulate, write each row's columns
// in first-touch order at its final offset, then order them in place (by
// sort or by the scratch's column bitmap). indptr must already hold the
// exact row offsets; a row that does not fill its slot throws CheckError.
void numeric_rows(const CsrMatrix& a, const CsrMatrix& b, CsrMatrix& c,
                  index_t r0, index_t r1, NumericScratch& s) {
  for (index_t i = r0; i < r1; ++i) {
    index_t* cols = c.indices.data() + c.indptr[i];
    std::size_t n = 0;
    for (offset_t k = a.indptr[i]; k < a.indptr[i + 1]; ++k) {
      const index_t j = a.indices[k];
      const value_t av = a.values[k];
      for (offset_t l = b.indptr[j]; l < b.indptr[j + 1]; ++l) {
        const index_t col = b.indices[l];
        if (s.marker[col] != i) {
          s.marker[col] = i;
          s.acc[col] = value_t{0};
          cols[n++] = col;
        }
        s.acc[col] += av * b.values[l];
      }
    }
    HH_CHECK_MSG(static_cast<offset_t>(n) == c.indptr[i + 1] - c.indptr[i],
                 "row " << i << " has " << n << " columns, sized for "
                        << c.indptr[i + 1] - c.indptr[i]);
    order_run(cols, n, s.acc.data(), s.bits.data(),
              c.values.data() + c.indptr[i]);
  }
}

}  // namespace

CsrMatrix gustavson_spgemm(const CsrMatrix& a, const CsrMatrix& b) {
  HH_CHECK_MSG(a.cols == b.rows, "incompatible shapes for product");
  CsrMatrix c(a.rows, b.cols);
  NumericScratch s(b.cols);
  exact_row_nnz(a, b, 0, a.rows, s.marker, c.indptr.data() + 1);
  size_output(c);
  std::fill(s.marker.begin(), s.marker.end(), -1);
  numeric_rows(a, b, c, 0, a.rows, s);
  return c;
}

CsrMatrix gustavson_spgemm_parallel(const CsrMatrix& a, const CsrMatrix& b,
                                    ThreadPool& pool) {
  HH_CHECK_MSG(a.cols == b.rows, "incompatible shapes for product");
  CsrMatrix c(a.rows, b.cols);
  const auto rows = static_cast<std::size_t>(a.rows);
  const std::size_t blocks = (rows + kRowBlock - 1) / kRowBlock;
  const auto lo = [](std::size_t k) {
    return static_cast<index_t>(k * kRowBlock);
  };
  const auto hi = [rows](std::size_t k) {
    return static_cast<index_t>(std::min(rows, (k + 1) * kRowBlock));
  };
  on_workers(pool, blocks, [&](auto take) {
    std::vector<index_t> marker(static_cast<std::size_t>(b.cols), -1);
    for (std::size_t k; (k = take()) < blocks;) {
      exact_row_nnz(a, b, lo(k), hi(k), marker, c.indptr.data() + 1);
    }
  });
  size_output(c);
  on_workers(pool, blocks, [&](auto take) {
    NumericScratch s(b.cols);
    for (std::size_t k; (k = take()) < blocks;) {
      numeric_rows(a, b, c, lo(k), hi(k), s);
    }
  });
  return c;
}

}  // namespace hh
