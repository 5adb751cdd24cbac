// Phase I threshold identification (paper §III-A).
//
// The paper picks t empirically (and names analytic identification as
// future work, §VI). We provide both: pick_threshold_analytic() evaluates a
// small candidate grid with structure-only estimates and the device models
// — the architecture-aware analytic method — and pick_threshold_empirical()
// prices every grid point exactly with the cost-only HH-CPU dry run;
// threshold_candidates() exposes the grid so benches can run the sweep of
// Fig. 8. Each sweep walks A once for the whole grid, not once per
// candidate: the analytic one serially (estimate_splits_on_grid), the exact
// one pool-parallel (cost_hh_cpu_grid).
#pragma once

#include <vector>

#include "device/platform.hpp"
#include "sparse/csr.hpp"

namespace hh {

/// Log-spaced candidate thresholds covering the row-size range of `m`
/// (deduplicated, ascending, at most `max_candidates`). Never empty and
/// never contains t <= 1: degenerate inputs (no rows, no nonzeros,
/// all-equal row lengths) fall back to a minimal {2, 3}-style grid.
std::vector<offset_t> threshold_candidates(const CsrMatrix& m,
                                           int max_candidates = 12);

/// The shared candidate grid for the pair (A, B): the deduplicated,
/// ascending union of both matrices' threshold_candidates(). This is the
/// grid every picker (analytic, empirical, online tuner) ranks over.
std::vector<offset_t> threshold_grid(const CsrMatrix& a, const CsrMatrix& b,
                                     int max_candidates = 12);

struct ThresholdChoice {
  offset_t t = 0;
  double predicted_s = 0;  // model-predicted total for this t
};

/// The full analytic sweep: predicted total for every grid candidate, plus
/// the argmin. Each total is the estimate of HH-CPU's run at that t (same t
/// for A and B, as in the paper's per-matrix sweep): Phase II is the max of
/// the two device products, Phase III the harmonic sharing of the cross
/// products between the devices. pick_threshold_analytic() is this sweep
/// reduced to its best entry; the online tuner keeps the whole ranking so
/// exploration can try near-tied candidates in predicted order.
struct ThresholdSweep {
  std::vector<offset_t> grid;       // ascending, deduplicated
  std::vector<double> predicted_s;  // parallel to grid
  std::size_t best = 0;             // argmin index into grid/predicted_s

  ThresholdChoice choice() const {
    return {grid.empty() ? 0 : grid[best],
            grid.empty() ? 0.0 : predicted_s[best]};
  }
};

ThresholdSweep sweep_thresholds(const CsrMatrix& a, const CsrMatrix& b,
                                const HeteroPlatform& platform);

/// argmin over threshold_grid() of the predicted total.
ThresholdChoice pick_threshold_analytic(const CsrMatrix& a,
                                        const CsrMatrix& b,
                                        const HeteroPlatform& platform);

/// The paper's method (§III-A): run the algorithm for every grid candidate
/// threshold and keep the best *measured* total (first minimum on ties).
/// The whole grid is priced by one cost_hh_cpu_grid() call, whose reports
/// equal the full runs' bit for bit, so the pick and its predicted_s are
/// those of a sweep of full runs at the cost of one symbolic pass instead of
/// a multiply and merge per candidate. The experiment harness uses this,
/// mirroring the paper's offline per-matrix tuning;
/// pick_threshold_analytic() stays the in-line default.
ThresholdChoice pick_threshold_empirical(const CsrMatrix& a,
                                         const CsrMatrix& b,
                                         const HeteroPlatform& platform,
                                         ThreadPool& pool);

}  // namespace hh
