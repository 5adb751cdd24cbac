#include "sched/static_partition.hpp"

#include <algorithm>
#include <span>
#include <vector>

#include "spgemm/spgemm.hpp"
#include "util/check.hpp"

namespace hh {

StaticSplit balance_static_split(const CsrMatrix& a, const CsrMatrix& b,
                                 const HeteroPlatform& platform) {
  HH_CHECK_MSG(a.cols == b.rows, "incompatible shapes for product");
  const index_t rows = a.rows;

  // One walk over A: each row's structure-only estimate and their total.
  // The split point then sweeps 0 → rows with prefix = rows [0, k) and
  // suffix = total − prefix, whose heaviest row comes from a suffix scan.
  std::vector<ProductStats> row(static_cast<std::size_t>(rows));
  ProductStats total;
  for (index_t i = 0; i < rows; ++i) {
    row[i] = estimate_partial_product(a, b, std::span(&i, 1), {}, true);
    total.accumulate(row[i]);
  }
  std::vector<std::int64_t> suffix_max_flops(
      static_cast<std::size_t>(rows) + 1, 0);
  for (index_t i = rows; i-- > 0;) {
    suffix_max_flops[i] =
        std::max(suffix_max_flops[i + 1], row[i].max_row_flops);
  }

  ProductStats prefix;  // rows [0, k)
  StaticSplit best;
  double best_cost = -1;

  const double ws_full = 12.0 * static_cast<double>(b.nnz());
  for (index_t k = 0; k <= rows; ++k) {
    ProductStats suffix = total;
    suffix.rows -= prefix.rows;
    suffix.a_nnz -= prefix.a_nnz;
    suffix.flops -= prefix.flops;
    suffix.tuples -= prefix.tuples;
    suffix.warp_alu -= prefix.warp_alu;
    suffix.flops_shared -= prefix.flops_shared;
    suffix.flops_global -= prefix.flops_global;
    suffix.b_read_bytes -= prefix.b_read_bytes;
    suffix.max_row_flops = suffix_max_flops[k];

    const double cpu_t = platform.cpu().kernel_time(prefix, ws_full, true);
    const double gpu_t = platform.gpu().kernel_time(suffix);
    const double cost = std::max(cpu_t, gpu_t);
    if (best_cost < 0 || cost < best_cost) {
      best_cost = cost;
      best.split_row = k;
      best.est_cpu_time = cpu_t;
      best.est_gpu_time = gpu_t;
    }
    if (k < rows) prefix.accumulate(row[k]);
  }
  return best;
}

}  // namespace hh
