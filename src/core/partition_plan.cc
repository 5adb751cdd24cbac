#include "core/partition_plan.hpp"

#include "core/threshold.hpp"

namespace hh {

PartitionPlan make_partition_plan(const CsrMatrix& a, const CsrMatrix& b,
                                  offset_t t_a, offset_t t_b,
                                  const HeteroPlatform& platform) {
  PartitionPlan plan;
  if (t_a <= 0 || t_b <= 0) {
    const ThresholdChoice choice = pick_threshold_analytic(a, b, platform);
    if (t_a <= 0) t_a = choice.t;
    if (t_b <= 0) t_b = choice.t;
  }
  plan.a = classify_rows(a, t_a);
  plan.b = (&a == &b && t_a == t_b) ? plan.a : classify_rows(b, t_b);
  plan.ws_bh_bytes = 12.0 * static_cast<double>(plan.b.high_nnz);
  plan.ws_bl_bytes = 12.0 * static_cast<double>(plan.b.low_nnz);

  // Row sizes (4 bytes each) to the GPU, Boolean arrays built there, and a
  // histogram pass on the CPU for the threshold identification itself.
  const std::int64_t rows =
      static_cast<std::int64_t>(a.rows) + static_cast<std::int64_t>(b.rows);
  plan.classify_s =
      platform.link().h2d().transfer_time(4.0 * static_cast<double>(rows)) +
      platform.gpu().classify_time(rows);
  plan.identify_s = platform.cpu().classify_time(rows);
  plan.phase1_s = plan.identify_s + plan.classify_s;
  return plan;
}

}  // namespace hh
