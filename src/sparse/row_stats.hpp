// Row-size (nonzeros-per-row) statistics: the quantity the whole paper keys
// on. Fig. 1 / Fig. 5 are histograms of these values.
#pragma once

#include <cstdint>
#include <vector>

#include "sparse/csr.hpp"

namespace hh {

/// nnz of every row.
std::vector<offset_t> row_nnz_vector(const CsrMatrix& m);

struct RowStats {
  offset_t min = 0;
  offset_t max = 0;
  double mean = 0;
  index_t empty_rows = 0;
};

RowStats row_stats(const CsrMatrix& m);

/// Number of rows with nnz >= threshold (the "HD" count in Fig. 5 legends).
index_t count_rows_at_least(const CsrMatrix& m, offset_t threshold);

}  // namespace hh
