// Reusable kernel workspaces.
//
// HH-CPU's numeric pass (numeric_in_halves, spgemm/spgemm.hpp) needs a dense
// accumulator per worker: one value per B column for each half of a row
// (`acc`, `acc2`), one marker, and one bitmap bit that orders a long row
// (spgemm/run_order.hpp). A call without a pool allocates its SPAs for the
// call. A service runtime executing a stream of products over same-shaped
// matrices passes WorkspacePool, which keeps released SPAs on a free list,
// so steady-state requests reuse them (paper-adjacent: Liu & Vinter's
// framework reuses analysis workspaces across products for the same
// reason). The pool holds SPAs only: a product's output is C itself, sized
// by the symbolic pass and written once. Gustavson's kernel
// (spgemm/gustavson.hpp) keeps its own scratch, one set per worker.
//
// Correctness of SPA reuse: the accumulator is only valid for columns whose
// marker carries the *current* tag. Tags are (generation, row) pairs packed
// into 64 bits and the generation is bumped on every begin_product(), so a
// stale marker from an earlier product can never alias a row of the current
// one. The bitmap carries no tag: it is all clear between rows, because
// order_run clears every word it scans before the next row starts, so a
// workspace returns to the pool clear and a stale bit cannot reach a later
// row or product. Pooled and non-pooled runs execute the identical kernel
// and produce bit-identical output.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "sparse/types.hpp"

namespace hh {

/// Dense-accumulator workspace for the row-row SPA kernel.
class SpaWorkspace {
 public:
  /// Start a new product over a B with `cols` columns: grows the arrays if
  /// needed (new bitmap words clear) and invalidates all markers by bumping
  /// the generation.
  void begin_product(index_t cols);

  /// Marker tag for row `i` of the current product.
  std::int64_t row_tag(index_t i) const {
    return (generation_ << 32) | static_cast<std::uint32_t>(i);
  }

  std::vector<value_t> acc;          // per-column partial values
  std::vector<value_t> acc2;         // the same for a row's second half
  std::vector<std::int64_t> marker;  // per-column tag of the owning row
  std::vector<std::uint64_t> bits;   // one bit per column, all clear
                                     // between rows

 private:
  std::int64_t generation_ = 0;
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
