// Row-Column formulation: C[i][j] = A(i,:) · B(:,j) via sorted-list
// intersection against a CSC view of B. The paper (§II-A, citing [13])
// notes this formulation is ill-suited to sparse inputs on modern parallel
// hardware; we implement it so the claim is demonstrable in the ablation
// bench (every candidate (i, j) pays an intersection even when empty).
// A's rows are sorted in a copy first, and a column repeated in a row of A
// or B contributes every product it forms.
#pragma once

#include "sparse/csr.hpp"
#include "util/thread_pool.hpp"

namespace hh {

CsrMatrix row_column_spgemm(const CsrMatrix& a, const CsrMatrix& b);

}  // namespace hh
