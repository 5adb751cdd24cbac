// Reusable kernel workspaces.
//
// Every partial-product invocation needs a dense SPA accumulator per worker
// (one value + one marker per B column): its count pass marks columns and
// its numeric pass accumulates values. Its output needs no buffer to pool:
// the count pass sizes the run store exactly (spgemm/spgemm.hpp). A call
// without a pool allocates the SPAs once and shares them between its two
// passes; a service runtime executing a stream of products over
// same-shaped matrices passes WorkspacePool, which keeps released SPAs on a
// free list so steady-state requests reuse them (paper-adjacent: Liu &
// Vinter's framework reuses analysis workspaces across products for the
// same reason).
//
// Correctness of SPA reuse: the accumulator is only valid for columns whose
// marker carries the *current* tag. Tags are (generation, row) pairs packed
// into 64 bits and the generation is bumped on every begin_product(), so a
// stale marker from an earlier product can never alias a row of the current
// one. The kernel's count and numeric passes each begin a product, so the
// numeric pass never takes a count-pass marker for its own. Pooled and
// non-pooled runs execute the identical kernel and produce bit-identical
// runs.
#pragma once

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
  /// needed and invalidates all markers by bumping the generation.
  void begin_product(index_t cols);

  /// Marker tag for row `i` of the current product.
  std::int64_t row_tag(index_t i) const {
    return (generation_ << 32) | static_cast<std::uint32_t>(i);
  }

  std::vector<value_t> acc;          // per-column partial values
  std::vector<std::int64_t> marker;  // per-column tag of the owning row

 private:
  std::int64_t generation_ = 0;
};

/// Thread-safe pool of SPA workspaces. Acquire hands out a recycled
/// workspace when one is free, otherwise a fresh one; release returns it
/// (arrays intact) to the free list.
class WorkspacePool {
 public:
  struct Stats {
    std::int64_t spa_acquires = 0;
    std::int64_t spa_reuses = 0;  // acquires served from the free list
    std::int64_t coo_acquires = 0;  // always 0: tuple buffers are not pooled
    std::int64_t coo_reuses = 0;    // always 0
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
