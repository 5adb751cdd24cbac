// Phase I of Algorithm HH-CPU: identify thresholds t_A, t_B and the logical
// submatrices A_H, A_L, B_H, B_L, and charge its (small) simulated cost:
// row sizes are shipped to the GPU, which computes the Boolean
// high-density array (paper §III-A: "embarrassingly parallel ... we perform
// this computation on GPU. For this computation we need only row sizes").
#pragma once

#include "device/platform.hpp"
#include "sparse/csr.hpp"
#include "sparse/partition.hpp"

namespace hh {

struct PartitionPlan {
  RowPartition a;
  RowPartition b;
  // phase1_s = identify_s + classify_s. The split matters to the runtime's
  // partition-plan cache: a cache hit reuses the thresholds and skips the
  // identification pass but still pays the per-request classification
  // (row sizes shipped, Boolean arrays built).
  double phase1_s = 0;
  double identify_s = 0;    // CPU histogram scan / threshold identification
  double classify_s = 0;    // row-size transfer + GPU Boolean-array build
  double ws_bh_bytes = 0;   // working set of B_H (12 bytes / nnz)
  double ws_bl_bytes = 0;   // working set of B_L
};

/// Build the plan for thresholds (t_a, t_b). Pass 0 for either to have the
/// analytic picker choose it (both zeros share one picked t, as in the
/// paper's per-matrix sweep).
PartitionPlan make_partition_plan(const CsrMatrix& a, const CsrMatrix& b,
                                  offset_t t_a, offset_t t_b,
                                  const HeteroPlatform& platform);

}  // namespace hh
