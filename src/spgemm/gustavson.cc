#include "spgemm/gustavson.hpp"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "spgemm/run_order.hpp"
#include "spgemm/spgemm.hpp"
#include "spgemm/symbolic.hpp"
#include "spgemm/workspace.hpp"
#include "util/check.hpp"

namespace hh {
namespace {

// Rows a worker takes at a time in each pass: block k holds rows
// [block_row(k), block_row(k + 1)).
constexpr std::size_t kRowBlock = 64;

std::size_t row_blocks(index_t rows) {
  return (static_cast<std::size_t>(rows) + kRowBlock - 1) / kRowBlock;
}

index_t block_row(std::size_t k, index_t rows) {
  return static_cast<index_t>(
      std::min(static_cast<std::size_t>(rows), k * kRowBlock));
}

// Sets C's row offsets, to the pattern's when one is given, else to the
// scan of the row sizes c.indptr[i + 1] holds for each row i, and sizes C's
// arrays to match, unwritten (sparse/csr.hpp).
void size_output(CsrMatrix& c, const CsrPattern* pattern) {
  if (pattern != nullptr) {
    std::copy(pattern->indptr.begin(), pattern->indptr.end(), c.indptr.begin());
  } else {
    for (index_t i = 0; i < c.rows; ++i) c.indptr[i + 1] += c.indptr[i];
  }
  c.indices.resize(static_cast<std::size_t>(c.nnz()));
  c.values.resize(static_cast<std::size_t>(c.nnz()));
}

// The SPA inner loop: adds the products of row i's A entries into acc, in
// the sided instantiation only those whose B row j has
// (b_side[j] != 0) == side. A column whose marker is not yet i takes it,
// starts from value_t{0} and is appended as cols[n]; returns the row's
// column count so far.
template <bool kSided>
std::size_t accumulate_row(const CsrMatrix& a, const CsrMatrix& b, index_t i,
                           const std::uint8_t* b_side, bool side,
                           index_t* marker, value_t* acc, index_t* cols,
                           std::size_t n) {
  for (offset_t k = a.indptr[i]; k < a.indptr[i + 1]; ++k) {
    const index_t j = a.indices[k];
    if constexpr (kSided) {
      if ((b_side[j] != 0) != side) continue;
    }
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
  return n;
}

// Writes row i of C into its slot, which c.indptr sized; a row that does
// not fill it throws CheckError. One-sided, each value is the sum over all
// of A(i, :). Sided, the B rows j with b_side[j] == a_side[i] sum into
// ws.acc and the rest into ws.acc2, where the first half's columns enter at
// +0.0, and each value is (0 + first) + second, with first = 0 where only
// the second half reaches the column: merge_row_runs' bits, as
// (0 + 0) + y == 0 + y and (0 + x) + 0 == 0 + x (0 + x is never -0.0).
template <bool kSided>
void fill_row(const CsrMatrix& a, const CsrMatrix& b,
              const std::uint8_t* a_side, const std::uint8_t* b_side,
              index_t i, SpaWorkspace& ws, CsrMatrix& c) {
  const offset_t at = c.indptr[i];
  index_t* cols = c.indices.data() + at;
  value_t* acc = ws.acc.data();
  const bool own = kSided && a_side[i] != 0;
  std::size_t n = accumulate_row<kSided>(a, b, i, b_side, own,
                                         ws.marker.data(), acc, cols, 0);
  if constexpr (kSided) {
    value_t* acc2 = ws.acc2.data();
    const std::size_t n1 = n;
    for (std::size_t m = 0; m < n1; ++m) acc2[cols[m]] = value_t{0};
    n = accumulate_row<true>(a, b, i, b_side, !own, ws.marker.data(), acc2,
                             cols, n1);
    for (std::size_t m = 0; m < n; ++m) {
      const index_t col = cols[m];
      acc[col] = (value_t{0} + (m < n1 ? acc[col] : value_t{0})) + acc2[col];
    }
  }
  HH_CHECK_MSG(static_cast<offset_t>(n) == c.indptr[i + 1] - at,
               "row " << i << " has " << n << " columns, sized for "
                      << c.indptr[i + 1] - at);
  order_run(cols, n, acc, ws.bits.data(), c.values.data() + at);
}

// Writes row i of C, split by B side, into its slot, which size_output set
// from `pattern`, whose slot holds the row's columns in order: no marker
// test and no ordering. The row's columns take value_t{0} in ws.acc and
// ws.acc2; every A entry adds its B row into its side's accumulator, in
// A-entry then B-entry order; and each value is (0 + first) + second.
// These are fill_row<true>'s bits: each half sums the same products from
// +0.0 in the same order, and a column that a half does not reach reads
// +0.0 there, as fill_row's (0 + 0) + y and (0 + x) + 0.
void fill_known_row(const CsrMatrix& a, const CsrMatrix& b,
                    const std::uint8_t* a_side, const std::uint8_t* b_side,
                    index_t i, const CsrPattern& pattern, SpaWorkspace& ws,
                    CsrMatrix& c) {
  const offset_t at = c.indptr[i];
  const auto n = static_cast<std::size_t>(c.indptr[i + 1] - at);
  index_t* cols = c.indices.data() + at;
  std::copy_n(pattern.indices.data() + at, n, cols);
  value_t* acc = ws.acc.data();
  value_t* acc2 = ws.acc2.data();
  for (std::size_t m = 0; m < n; ++m) {
    acc[cols[m]] = value_t{0};
    acc2[cols[m]] = value_t{0};
  }
  const bool own = a_side[i] != 0;
  for (offset_t k = a.indptr[i]; k < a.indptr[i + 1]; ++k) {
    const index_t j = a.indices[k];
    value_t* sum = (b_side[j] != 0) == own ? acc : acc2;
    const value_t av = a.values[k];
    for (offset_t l = b.indptr[j]; l < b.indptr[j + 1]; ++l) {
      sum[b.indices[l]] += av * b.values[l];
    }
  }
  value_t* vals = c.values.data() + at;
  for (std::size_t m = 0; m < n; ++m) {
    vals[m] = (value_t{0} + acc[cols[m]]) + acc2[cols[m]];
  }
}

// The numeric pass: sizes C (size_output), then the pool's workers draw
// blocks of rows, each worker with one SPA from `workspace` (a local pool
// when null) for all its blocks, and fill the rows they take, so C's pages
// are first touched there. The known-pattern instantiation (kKnown, sided
// only) takes each row's columns from `pattern` and never touches the
// markers; the others discover each row's columns.
template <bool kSided, bool kKnown = false>
void numeric_pass(const CsrMatrix& a, const CsrMatrix& b,
                  const std::uint8_t* a_side, const std::uint8_t* b_side,
                  const CsrPattern* pattern, CsrMatrix& c, ThreadPool& pool,
                  WorkspacePool* workspace) {
  size_output(c, pattern);
  WorkspacePool local;
  WorkspacePool& spas = workspace != nullptr ? *workspace : local;
  const std::size_t blocks = row_blocks(a.rows);
  on_workers(pool, blocks, [&](auto take) {
    std::unique_ptr<SpaWorkspace> ws = spas.acquire_spa();
    if constexpr (kKnown) {
      ws->fit(b.cols);
    } else {
      ws->begin_product(b.cols);
    }
    for (std::size_t k; (k = take()) < blocks;) {
      const index_t hi = block_row(k + 1, a.rows);
      for (index_t i = block_row(k, a.rows); i < hi; ++i) {
        if constexpr (kKnown) {
          fill_known_row(a, b, a_side, b_side, i, *pattern, *ws, c);
        } else {
          fill_row<kSided>(a, b, a_side, b_side, i, *ws, c);
        }
      }
    }
    spas.release_spa(std::move(ws));
  });
}

// numeric_in_halves' operand, side and output shapes.
void check_halves(const CsrMatrix& a, const CsrMatrix& b,
                  std::span<const std::uint8_t> a_side,
                  std::span<const std::uint8_t> b_side, const CsrMatrix& c) {
  HH_CHECK(a.cols == b.rows && c.rows == a.rows && c.cols == b.cols &&
           a_side.size() == static_cast<std::size_t>(a.rows) &&
           b_side.size() == static_cast<std::size_t>(b.rows) &&
           c.indptr.size() == a_side.size() + 1 && c.indices.empty());
}

}  // namespace

CsrMatrix gustavson_spgemm(const CsrMatrix& a, const CsrMatrix& b) {
  HH_CHECK_MSG(a.cols == b.rows, "incompatible shapes for product");
  CsrMatrix c(a.rows, b.cols);
  // The count pass borrows the SPA's markers; begin_product resets them.
  SpaWorkspace ws;
  ws.begin_product(b.cols);
  exact_row_nnz(a, b, 0, a.rows, ws.marker, c.indptr.data() + 1);
  size_output(c, nullptr);
  ws.begin_product(b.cols);
  for (index_t i = 0; i < a.rows; ++i) {
    fill_row<false>(a, b, nullptr, nullptr, i, ws, c);
  }
  return c;
}

CsrMatrix gustavson_spgemm_parallel(const CsrMatrix& a, const CsrMatrix& b,
                                    ThreadPool& pool) {
  HH_CHECK_MSG(a.cols == b.rows, "incompatible shapes for product");
  CsrMatrix c(a.rows, b.cols);
  const std::size_t blocks = row_blocks(a.rows);
  on_workers(pool, blocks, [&](auto take) {
    std::vector<index_t> marker(static_cast<std::size_t>(b.cols), -1);
    for (std::size_t k; (k = take()) < blocks;) {
      exact_row_nnz(a, b, block_row(k, a.rows), block_row(k + 1, a.rows),
                    marker, c.indptr.data() + 1);
    }
  });
  numeric_pass<false>(a, b, nullptr, nullptr, nullptr, c, pool, nullptr);
  return c;
}

void numeric_in_halves(const CsrMatrix& a, const CsrMatrix& b,
                       std::span<const std::uint8_t> a_side,
                       std::span<const std::uint8_t> b_side, CsrMatrix& c,
                       ThreadPool& pool, WorkspacePool* workspace) {
  check_halves(a, b, a_side, b_side, c);
  numeric_pass<true>(a, b, a_side.data(), b_side.data(), nullptr, c, pool,
                     workspace);
}

void numeric_in_halves(const CsrMatrix& a, const CsrMatrix& b,
                       std::span<const std::uint8_t> a_side,
                       std::span<const std::uint8_t> b_side,
                       const CsrPattern& pattern, CsrMatrix& c,
                       ThreadPool& pool, WorkspacePool* workspace) {
  check_halves(a, b, a_side, b_side, c);
  HH_CHECK(pattern.cols == b.cols && pattern.indptr.size() == c.indptr.size() &&
           pattern.indices.size() == static_cast<std::size_t>(pattern.nnz()));
  numeric_pass<true, true>(a, b, a_side.data(), b_side.data(), &pattern, c,
                           pool, workspace);
}

}  // namespace hh
