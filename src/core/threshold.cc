#include "core/threshold.hpp"

#include <algorithm>
#include <cmath>

#include "core/hh_cpu.hpp"
#include "sparse/row_stats.hpp"
#include "spgemm/spgemm.hpp"
#include "util/check.hpp"

namespace hh {

std::vector<offset_t> threshold_candidates(const CsrMatrix& m,
                                           int max_candidates) {
  HH_CHECK(max_candidates >= 2);
  // Degenerate inputs (no rows, no nonzeros) have no row-size range to
  // cover; a minimal two-point grid keeps every sweep well-defined.
  const RowStats s = (m.rows > 0 && m.nnz() > 0) ? row_stats(m) : RowStats{};
  const offset_t lo = std::max<offset_t>(2, s.min + 1);
  const offset_t hi = std::max<offset_t>(lo + 1, s.max + 1);
  std::vector<offset_t> out;
  const double ratio = std::pow(static_cast<double>(hi) /
                                    static_cast<double>(lo),
                                1.0 / (max_candidates - 1));
  double x = static_cast<double>(lo);
  for (int i = 0; i < max_candidates; ++i) {
    const auto t = static_cast<offset_t>(std::llround(x));
    if (out.empty() || t > out.back()) out.push_back(t);
    x *= ratio;
  }
  // All-equal row lengths collapse the log grid onto one point; hi > lo by
  // construction, so the endpoint always yields a second distinct candidate.
  if (out.size() < 2) out.push_back(hi);
  HH_CHECK(out.front() >= 2);
  return out;
}

std::vector<offset_t> threshold_grid(const CsrMatrix& a, const CsrMatrix& b,
                                     int max_candidates) {
  std::vector<offset_t> cand = threshold_candidates(a, max_candidates);
  if (&a != &b) {
    const std::vector<offset_t> cb = threshold_candidates(b, max_candidates);
    cand.insert(cand.end(), cb.begin(), cb.end());
    std::sort(cand.begin(), cand.end());
    cand.erase(std::unique(cand.begin(), cand.end()), cand.end());
  }
  return cand;
}

namespace {

// The predicted total at one threshold from its split estimate.
double price_split(const SplitEstimate& split, const CsrMatrix& a,
                   const CsrMatrix& b, const HeteroPlatform& platform) {
  const ProductStats none;
  const index_t a_high = split.a_rows[1];
  const index_t a_low = split.a_rows[0];
  const index_t b_high = split.b_rows[1];
  const index_t b_low = split.b_rows[0];

  const double ws_bh = 12.0 * static_cast<double>(split.b_nnz[1]);
  const double ws_bl = 12.0 * static_cast<double>(split.b_nnz[0]);

  // Phase II products (empty sides skipped, as in run_hh_cpu).
  const ProductStats& hh =
      (a_high > 0 && b_high > 0) ? split.by_side[1][1] : none;
  const ProductStats& ll = (a_low > 0 && b_low > 0) ? split.by_side[0][0] : none;
  const double t2_cpu =
      platform.cpu().kernel_time(hh, ws_bh, true, /*blockable=*/true);
  double t2_gpu = platform.gpu().kernel_time(ll);
  // The GPU only waits for the input transfer if this threshold gives it
  // any work at all; a CPU-only partition skips the link entirely.
  if (ll.flops > 0 || a_high < a.rows || b_high < b.rows) {
    t2_gpu += platform.link().h2d().operands_transfer_time(a, b);
  }
  const double t2 = HeteroPlatform::overlap(t2_cpu, t2_gpu);

  // Phase III products, shared dynamically: if the CPU alone would take Tc
  // and the GPU alone Tg for the whole phase-III workload, the workqueue
  // approaches the harmonic time Tc·Tg/(Tc+Tg).
  // Cross products with an empty B side are skipped by run_hh_cpu; mirror
  // that here so predictions rank thresholds the way the algorithm behaves.
  const ProductStats& lh = b_high > 0 ? split.by_side[0][1] : none;
  const ProductStats& hl = b_low > 0 ? split.by_side[1][0] : none;
  ProductStats p3 = lh;
  p3.accumulate(hl);
  const double t3_cpu =
      platform.cpu().kernel_time(lh, ws_bh, true, /*blockable=*/true) +
      platform.cpu().kernel_time(hl, ws_bl, true, /*blockable=*/false);
  const double t3_gpu = platform.gpu().kernel_time(p3);
  const double t3 = (t3_cpu <= 0 || t3_gpu <= 0)
                        ? std::max(t3_cpu, t3_gpu)
                        : t3_cpu * t3_gpu / (t3_cpu + t3_gpu);

  // Phase IV on the tuple upper bound, plus the GPU→CPU result transfer:
  // tuples produced on the GPU cross PCIe, so giving the CPU work also
  // saves link time — the ranking must see that. The GPU's share of the
  // Phase III tuples is its share of the harmonic split, t3/t3_gpu.
  const std::int64_t tuples = hh.tuples + ll.tuples + p3.tuples;
  const double t4 = platform.cpu().merge_time(tuples);
  double gpu_tuples = static_cast<double>(ll.tuples);
  if (t3_gpu > 0) gpu_tuples += static_cast<double>(p3.tuples) * t3 / t3_gpu;
  const double t_out =
      platform.link().d2h().transfer_time(16.0 * gpu_tuples);
  return t2 + t3 + t4 + t_out;
}

}  // namespace

ThresholdSweep sweep_thresholds(const CsrMatrix& a, const CsrMatrix& b,
                                const HeteroPlatform& platform) {
  ThresholdSweep sweep;
  sweep.grid = threshold_grid(a, b);
  const std::vector<SplitEstimate> splits =
      estimate_splits_on_grid(a, b, sweep.grid);
  sweep.predicted_s.reserve(sweep.grid.size());
  for (std::size_t i = 0; i < sweep.grid.size(); ++i) {
    sweep.predicted_s.push_back(price_split(splits[i], a, b, platform));
    if (sweep.predicted_s[i] < sweep.predicted_s[sweep.best]) sweep.best = i;
  }
  return sweep;
}

ThresholdChoice pick_threshold_analytic(const CsrMatrix& a,
                                        const CsrMatrix& b,
                                        const HeteroPlatform& platform) {
  const ThresholdChoice best = sweep_thresholds(a, b, platform).choice();
  HH_CHECK(best.predicted_s >= 0);
  return best;
}

ThresholdChoice pick_threshold_empirical(const CsrMatrix& a,
                                         const CsrMatrix& b,
                                         const HeteroPlatform& platform,
                                         ThreadPool& pool) {
  const std::vector<offset_t> grid = threshold_grid(a, b);
  const std::vector<RunReport> reports =
      cost_hh_cpu_grid(a, b, grid, {}, platform, pool);

  ThresholdChoice best{grid[0], reports[0].total_s};
  for (std::size_t g = 1; g < grid.size(); ++g) {
    if (reports[g].total_s < best.predicted_s) {
      best = {grid[g], reports[g].total_s};
    }
  }
  HH_CHECK(best.predicted_s >= 0);
  return best;
}

}  // namespace hh
