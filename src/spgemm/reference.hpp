// Dense reference multiply — the correctness oracle for small matrices.
#pragma once

#include "sparse/csr.hpp"

namespace hh {

/// O(rows·cols) memory: only for test-sized matrices. Every column some
/// product touches is kept, also when its sum cancels to zero, and each value
/// is summed from value_t{0} in A-entry then B-entry order, as the SPA
/// kernels sum it; each row is ordered by a scan over all of B's columns.
CsrMatrix reference_multiply_dense(const CsrMatrix& a, const CsrMatrix& b);

}  // namespace hh
