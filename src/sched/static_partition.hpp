// The static CPU/GPU work split of the HiPC 2012 heterogeneous algorithm
// [13]: rows of A are divided once, up front, using a-priori estimates
// (structure-only symbolic stats — the only thing available before the
// multiply). The paper's point is precisely that such estimates cannot see
// density-driven effects; the mismatch between estimated and simulated time
// is what HH-CPU's dynamic, density-aware assignment removes.
#pragma once

#include "device/platform.hpp"
#include "sparse/csr.hpp"

namespace hh {

struct StaticSplit {
  index_t split_row = 0;  // rows [0, split_row) → CPU, rest → GPU
  double est_cpu_time = 0;
  double est_gpu_time = 0;
};

/// Choose the contiguous prefix/suffix split minimizing the larger of the
/// two devices' *estimated* times for C = A × B (full B on both sides); on a
/// tie, the smallest split_row. Each side is priced as
/// estimate_partial_product over its rows, from one walk over A.
StaticSplit balance_static_split(const CsrMatrix& a, const CsrMatrix& b,
                                 const HeteroPlatform& platform);

}  // namespace hh
