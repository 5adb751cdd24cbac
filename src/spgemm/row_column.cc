#include "spgemm/row_column.hpp"

#include <vector>

#include "sparse/convert.hpp"
#include "util/check.hpp"

namespace hh {

CsrMatrix row_column_spgemm(const CsrMatrix& a_in, const CsrMatrix& b) {
  HH_CHECK_MSG(a_in.cols == b.rows, "incompatible shapes for product");
  // The dot products walk A's rows and B's columns as ascending lists:
  // transpose() lists each column of B ascending, and A's rows are sorted
  // in a copy (sort_rows leaves sorted rows as they are).
  CsrMatrix a = a_in;
  a.sort_rows();
  const CsrMatrix bt = transpose(b);  // row j of bt == column j of b

  CsrMatrix c(a.rows, b.cols);
  // Candidate columns for row i: columns j whose B(:,j) intersects A(i,:)'s
  // support. Enumerating all cols is hopeless; collect candidates by walking
  // rows of B once per A row (this is what makes the formulation pay:
  // the candidate set is rebuilt per row, with no reuse).
  std::vector<index_t> marker(static_cast<std::size_t>(b.cols), -1);
  std::vector<index_t> candidates;
  for (index_t i = 0; i < a.rows; ++i) {
    candidates.clear();
    for (offset_t k = a.indptr[i]; k < a.indptr[i + 1]; ++k) {
      const index_t j = a.indices[k];
      for (offset_t l = b.indptr[j]; l < b.indptr[j + 1]; ++l) {
        const index_t col = b.indices[l];
        if (marker[col] != i) {
          marker[col] = i;
          candidates.push_back(col);
        }
      }
    }
    std::sort(candidates.begin(), candidates.end());
    for (const index_t col : candidates) {
      // Sorted-list dot product of A(i,:) with B(:,col) (= bt row col). A
      // column j repeated on either side multiplies every A entry of it
      // with every B entry of it, in entry order.
      value_t dot = 0;
      offset_t p = a.indptr[i], q = bt.indptr[col];
      const offset_t pe = a.indptr[i + 1], qe = bt.indptr[col + 1];
      while (p < pe && q < qe) {
        const index_t pa = a.indices[p], qb = bt.indices[q];
        if (pa < qb) {
          ++p;
        } else if (qb < pa) {
          ++q;
        } else {
          offset_t q_end = q;
          while (q_end < qe && bt.indices[q_end] == pa) ++q_end;
          for (; p < pe && a.indices[p] == pa; ++p) {
            for (offset_t l = q; l < q_end; ++l) {
              dot += a.values[p] * bt.values[l];
            }
          }
          q = q_end;
        }
      }
      c.indices.push_back(col);
      c.values.push_back(dot);
    }
    c.indptr[i + 1] = static_cast<offset_t>(c.indices.size());
  }
  return c;
}

}  // namespace hh
