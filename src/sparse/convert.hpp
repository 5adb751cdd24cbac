// Structural transforms.
#pragma once

#include "sparse/csr.hpp"

namespace hh {

/// Transpose (also CSR → CSC reinterpretation).
CsrMatrix transpose(const CsrMatrix& m);

/// Keep only rows where keep[r] != 0; other rows become empty. Row numbering
/// is preserved (matrices are never physically split — paper §IV-A).
CsrMatrix mask_rows(const CsrMatrix& m, const std::vector<std::uint8_t>& keep);

}  // namespace hh
