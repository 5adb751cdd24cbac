// Reusable kernel workspaces.
//
// The one SPA numeric pass (spgemm/gustavson.hpp) needs a dense
// accumulator per worker: one value per B column for a row (`acc`), the
// same for a sided row's second half (`acc2`), one marker, and one bitmap
// bit that orders a long row (spgemm/run_order.hpp). A call without a pool
// allocates its SPAs for the call. A service runtime executing a stream of
// products over same-shaped matrices passes WorkspacePool, which keeps
// released SPAs on a free list, so steady-state requests reuse them
// (paper-adjacent: Liu & Vinter's framework reuses analysis workspaces
// across products for the same reason). The pool holds SPAs only: a
// product's output is C itself, sized by the symbolic pass, or copied from
// a known pattern, and written once.
//
// Correctness of SPA reuse: an accumulator slot is only valid for a column
// whose marker holds the current row. Each column's marker keeps the last
// row that reached it, and no product visits a row twice, so an earlier
// row of the same product never matches; begin_product() sets the markers
// of every column of the new B to -1, so no row of an earlier product can
// match either. The accumulators are never cleared: a column's first entry
// in a row writes its slot. The bitmap is all clear between rows, because
// order_run clears every word it scans before the next row starts, so a
// workspace returns to the pool clear and a stale bit cannot reach a later
// row or product. The known-pattern pass (numeric_in_halves into a
// CsrPattern) leaves the markers and the bitmap untouched: it only fit()s
// the arrays, whose new bitmap words are clear, and sets a row's pattern
// columns to value_t{0} in `acc` and `acc2` before adding into them, so
// the invariants above hold for whichever pass takes the workspace next. Pooled and non-pooled runs execute the identical kernel
// and produce bit-identical output.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "sparse/csr.hpp"
#include "sparse/types.hpp"

namespace hh {

/// Dense-accumulator workspace for the row-row SPA kernel.
struct SpaWorkspace {
  /// Grows the arrays to hold a B with `cols` columns if needed (new
  /// accumulator slots unwritten, new bitmap words clear); the markers are
  /// left as they are.
  void fit(index_t cols);

  /// Start a new product over a B with `cols` columns: fit(cols), then set
  /// the first `cols` markers to -1.
  void begin_product(index_t cols);

  DefaultInitVector<value_t> acc;   // per-column partial values
  DefaultInitVector<value_t> acc2;  // the same for a row's second half
  std::vector<index_t> marker;      // per column, the last row to reach it
  std::vector<std::uint64_t> bits;  // one bit per column, all clear
                                    // between rows
};

/// Thread-safe pool of SPA workspaces. Acquire hands out a recycled one
/// when one is free, otherwise a fresh one; release returns it (arrays
/// intact).
class WorkspacePool {
 public:
  struct Stats {
    std::int64_t spa_acquires = 0;
    std::int64_t spa_reuses = 0;  // acquires served from the free list
    // Benchmark shim: the pool keeps no tuple buffers or run stores, so
    // these stay 0; perfbench reads them.
    std::int64_t coo_acquires = 0;
    std::int64_t coo_reuses = 0;
    std::int64_t spa_live = 0;  // workspaces currently handed out
  };

  std::unique_ptr<SpaWorkspace> acquire_spa();
  void release_spa(std::unique_ptr<SpaWorkspace> ws);

  Stats stats() const;

 private:
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<SpaWorkspace>> free_spa_;
  Stats stats_;
};

}  // namespace hh
