// Reusable kernel workspaces.
//
// Every partial-product invocation needs a dense SPA accumulator per worker
// (one value, one marker and one bitmap bit per B column): its count pass
// marks columns, and its numeric pass accumulates values and orders each
// long run through the bitmap (spgemm/run_order.hpp). It writes its runs
// into a run store that the count pass sizes exactly (spgemm/spgemm.hpp),
// and Phase IV reads the stores once, into C. A call without a pool
// allocates the SPAs once and shares them between its two passes, and
// allocates its run store. A service runtime executing a stream of products
// over same-shaped matrices passes WorkspacePool, which keeps released SPAs
// on a free list and the run stores Phase IV has consumed one per role, so
// steady-state requests reuse them (paper-adjacent: Liu & Vinter's framework
// reuses analysis workspaces across products for the same reason). Each
// product of the next run gets back the store its own role gave back, so a
// kept store's capacity follows one product's size, not the largest of the
// three. Recycling the stores matters for more than the allocation: a
// freshly allocated store is first touched page by page as it is
// zero-filled, and how many of its pages are fresh depends on what the
// allocator kept from earlier requests, so without recycling a drain's host
// time follows the allocator's state.
//
// Correctness of SPA reuse: the accumulator is only valid for columns whose
// marker carries the *current* tag. Tags are (generation, row) pairs packed
// into 64 bits and the generation is bumped on every begin_product(), so a
// stale marker from an earlier product can never alias a row of the current
// one. The kernel's count and numeric passes each begin a product, so the
// numeric pass never takes a count-pass marker for its own. The bitmap
// carries no tag: it is all clear between rows, because order_run clears
// every word it scans before the next row starts, so a workspace returns to
// the pool clear and a stale bit cannot reach a later row or product.
// A recycled run store is handed out with indptr all zero and no entries;
// the kernel sizes and writes it exactly as a fresh one. Pooled and
// non-pooled runs execute the identical kernel and produce bit-identical
// runs.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "sparse/csr.hpp"
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
  std::vector<std::int64_t> marker;  // per-column tag of the owning row
  std::vector<std::uint64_t> bits;   // one bit per column, all clear
                                     // between rows

 private:
  std::int64_t generation_ = 0;
};

/// The partial products of one HH-CPU run, each writing a run store of its
/// own: Phase II's A_H×B_H and A_L×B_L and Phase III's queue.
enum class RunStoreRole : std::uint8_t { kHh, kLl, kQueue };

/// Thread-safe pool of SPA workspaces and run stores. Acquire hands out a
/// recycled one when one is free, otherwise a fresh one; release returns it
/// (arrays intact). SPAs share one free list; run stores are kept one per
/// RunStoreRole.
class WorkspacePool {
 public:
  struct Stats {
    std::int64_t spa_acquires = 0;
    std::int64_t spa_reuses = 0;  // acquires served from the free list
    // Run stores handed out, and those served from the free list (named
    // for the tuple buffers the run stores replaced).
    std::int64_t coo_acquires = 0;
    std::int64_t coo_reuses = 0;
    std::int64_t spa_live = 0;  // workspaces currently handed out
  };

  std::unique_ptr<SpaWorkspace> acquire_spa();
  void release_spa(std::unique_ptr<SpaWorkspace> ws);

  /// An empty run store over `rows` A rows and `cols` B columns for a
  /// product of `role`: indptr holds rows + 1 zeros and indices and values
  /// are empty, but the store `role` last gave back keeps its arrays'
  /// capacity.
  CsrMatrix acquire_run_store(RunStoreRole role, index_t rows, index_t cols);
  /// Return a run store whose runs have been read (Phase IV does this). The
  /// role keeps it unless it already keeps one, as it does when this run's
  /// product of that role drew no store from the pool (a skipped product);
  /// then this store is freed.
  void release_run_store(RunStoreRole role, CsrMatrix store);

  Stats stats() const;

 private:
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<SpaWorkspace>> free_spa_;
  std::array<std::optional<CsrMatrix>, 3> free_run_stores_;  // by role
  Stats stats_;
};

}  // namespace hh
