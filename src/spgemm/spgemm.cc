#include "spgemm/spgemm.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <vector>

#include "spgemm/gustavson.hpp"
#include "spgemm/hash_spgemm.hpp"
#include "spgemm/heap_spgemm.hpp"
#include "spgemm/row_column.hpp"
#include "util/check.hpp"

namespace hh {
namespace {
std::atomic<std::int64_t> g_shared_cap{kSharedAccumCap};
}  // namespace

std::int64_t shared_accum_cap() {
  return g_shared_cap.load(std::memory_order_relaxed);
}

void set_shared_accum_cap(std::int64_t cap) {
  HH_CHECK(cap >= 1);
  g_shared_cap.store(cap, std::memory_order_relaxed);
}

std::string to_string(SpgemmKind kind) {
  switch (kind) {
    case SpgemmKind::kGustavson:
      return "gustavson";
    case SpgemmKind::kHash:
      return "hash";
    case SpgemmKind::kHeap:
      return "heap";
    case SpgemmKind::kRowColumn:
      return "row-column";
  }
  return "unknown";
}

CsrMatrix multiply(const CsrMatrix& a, const CsrMatrix& b, SpgemmKind kind,
                   ThreadPool& pool) {
  switch (kind) {
    case SpgemmKind::kGustavson:
      return gustavson_spgemm_parallel(a, b, pool);
    case SpgemmKind::kHash:
      return hash_spgemm_parallel(a, b, pool);
    case SpgemmKind::kHeap:
      return heap_spgemm_parallel(a, b, pool);
    case SpgemmKind::kRowColumn:
      return row_column_spgemm(a, b);
  }
  HH_CHECK_MSG(false, "unreachable");
  return {};
}

void ProductStats::accumulate(const ProductStats& o) {
  rows += o.rows;
  a_nnz += o.a_nnz;
  flops += o.flops;
  tuples += o.tuples;
  max_row_flops = std::max(max_row_flops, o.max_row_flops);
  warp_alu += o.warp_alu;
  flops_shared += o.flops_shared;
  flops_global += o.flops_global;
  b_read_bytes += o.b_read_bytes;
}

namespace {

// The counters every kernel, estimate and symbolic pass charges, in one
// place so numeric and symbolic counts cannot drift apart.

// One visited A entry a(i, j), where B row j has `blen` nonzeros. Its
// multiply-adds are summed per row by the caller and charged by charge_row.
void charge_a_entry(ProductStats& s, std::int64_t blen) {
  ++s.a_nnz;
  s.warp_alu += (blen + 31) / 32;
  s.b_read_bytes += (blen * 12 + 31) / 32 * 32;
}

// One finished A row: `row_flops` multiply-adds into `row_tuples` output
// columns.
void charge_row(ProductStats& s, std::int64_t row_flops,
                std::int64_t row_tuples) {
  ++s.rows;
  s.flops += row_flops;
  s.tuples += row_tuples;
  s.max_row_flops = std::max(s.max_row_flops, row_flops);
  if (row_tuples <= shared_accum_cap()) {
    s.flops_shared += row_flops;
  } else {
    s.flops_global += row_flops;
  }
}

// Per-block worker: SPA-accumulate the assigned a_rows slice, appending
// tuples to a local COO and aggregating stats. Each row's own stats also go
// to row_stats[idx] when row_stats is non-empty.
void partial_rows(const CsrMatrix& a, const CsrMatrix& b,
                  std::span<const index_t> a_rows,
                  std::span<const std::uint8_t> b_mask, bool b_mask_value,
                  std::size_t lo, std::size_t hi, SpaWorkspace& ws,
                  CooMatrix& out, ProductStats& stats,
                  std::span<ProductStats> row_stats) {
  ws.begin_product(b.cols);
  std::vector<value_t>& acc = ws.acc;
  std::vector<std::int64_t>& marker = ws.marker;
  std::vector<index_t>& cols = ws.cols_touched;
  for (std::size_t idx = lo; idx < hi; ++idx) {
    const index_t i = a_rows[idx];
    const std::int64_t tag = ws.row_tag(i);
    cols.clear();
    ProductStats row;
    std::int64_t row_flops = 0;
    for (offset_t k = a.indptr[i]; k < a.indptr[i + 1]; ++k) {
      const index_t j = a.indices[k];
      if (!b_mask.empty() && (b_mask[j] != 0) != b_mask_value) continue;
      const value_t av = a.values[k];
      const offset_t blen = b.indptr[j + 1] - b.indptr[j];
      charge_a_entry(row, blen);
      row_flops += blen;
      for (offset_t l = b.indptr[j]; l < b.indptr[j + 1]; ++l) {
        const index_t col = b.indices[l];
        if (marker[col] != tag) {
          marker[col] = tag;
          acc[col] = value_t{0};
          cols.push_back(col);
        }
        acc[col] += av * b.values[l];
      }
    }
    std::sort(cols.begin(), cols.end());
    for (const index_t col : cols) out.push(i, col, acc[col]);
    charge_row(row, row_flops, static_cast<std::int64_t>(cols.size()));
    stats.accumulate(row);
    if (!row_stats.empty()) row_stats[idx] = row;
  }
}

// Per-block worker of masked_row_costs: charge every A entry to the mask
// side of its B row, and count each row's distinct columns per side and
// overall. mark[col] packs (row + 1) << 2 with one "seen" bit per side, so
// one array serves both sides and a zero-filled array matches no row.
// Returns the block's distinct (r, c) count.
std::int64_t masked_rows(const CsrMatrix& a, const CsrMatrix& b,
                         std::span<const std::uint8_t> b_mask, index_t lo,
                         index_t hi, std::vector<std::int64_t>& mark,
                         MaskedRowCosts& out) {
  std::int64_t out_nnz = 0;
  for (index_t i = lo; i < hi; ++i) {
    const std::int64_t key = (static_cast<std::int64_t>(i) + 1) << 2;
    std::array<ProductStats, 2> s;
    std::array<std::int64_t, 2> row_flops = {0, 0};
    std::array<std::int64_t, 2> row_tuples = {0, 0};
    for (offset_t k = a.indptr[i]; k < a.indptr[i + 1]; ++k) {
      const index_t j = a.indices[k];
      const std::size_t side = b_mask[j] != 0 ? 1 : 0;
      const std::int64_t bit = std::int64_t{1} << side;
      const offset_t blen = b.indptr[j + 1] - b.indptr[j];
      charge_a_entry(s[side], blen);
      row_flops[side] += blen;
      for (offset_t l = b.indptr[j]; l < b.indptr[j + 1]; ++l) {
        std::int64_t& m = mark[static_cast<std::size_t>(b.indices[l])];
        if ((m & ~std::int64_t{3}) != key) {
          m = key | bit;
          ++row_tuples[side];
          ++out_nnz;
        } else if ((m & bit) == 0) {
          m |= bit;
          ++row_tuples[side];
        }
      }
    }
    for (std::size_t v = 0; v < 2; ++v) {
      charge_row(s[v], row_flops[v], row_tuples[v]);
      out.by_mask[v][static_cast<std::size_t>(i)] = s[v];
    }
  }
  return out_nnz;
}

}  // namespace

CooMatrix partial_product_tuples(const CsrMatrix& a, const CsrMatrix& b,
                                 std::span<const index_t> a_rows,
                                 std::span<const std::uint8_t> b_mask,
                                 bool b_mask_value, ThreadPool& pool,
                                 ProductStats* stats,
                                 WorkspacePool* workspace,
                                 std::span<ProductStats> row_stats) {
  HH_CHECK_MSG(a.cols == b.rows, "incompatible shapes for product");
  HH_CHECK(b_mask.empty() ||
           b_mask.size() == static_cast<std::size_t>(b.rows));
  HH_CHECK(row_stats.empty() || row_stats.size() == a_rows.size());

  const auto n = static_cast<std::int64_t>(a_rows.size());
  const std::int64_t blocks =
      std::max<std::int64_t>(1, std::min<std::int64_t>(
                                    n, static_cast<std::int64_t>(pool.size()) *
                                           4));
  const std::int64_t chunk = n == 0 ? 1 : (n + blocks - 1) / blocks;
  const std::int64_t nblocks = n == 0 ? 0 : (n + chunk - 1) / chunk;

  std::vector<CooMatrix> block_out;
  block_out.reserve(static_cast<std::size_t>(nblocks));
  for (std::int64_t blk = 0; blk < nblocks; ++blk) {
    block_out.push_back(workspace != nullptr
                            ? workspace->acquire_coo(a.rows, b.cols)
                            : CooMatrix(a.rows, b.cols));
  }
  std::vector<ProductStats> block_stats(static_cast<std::size_t>(nblocks));

  pool.parallel_for(nblocks, [&](std::int64_t b0, std::int64_t b1) {
    // One SPA workspace per worker slice; pooled when a pool is supplied.
    std::unique_ptr<SpaWorkspace> ws = workspace != nullptr
                                           ? workspace->acquire_spa()
                                           : std::make_unique<SpaWorkspace>();
    for (std::int64_t blk = b0; blk < b1; ++blk) {
      const auto lo = static_cast<std::size_t>(blk * chunk);
      const auto hi = static_cast<std::size_t>(std::min(n, (blk + 1) * chunk));
      partial_rows(a, b, a_rows, b_mask, b_mask_value, lo, hi, *ws,
                   block_out[blk], block_stats[blk], row_stats);
    }
    if (workspace != nullptr) workspace->release_spa(std::move(ws));
  });

  // Concatenate in block order → deterministic output independent of the
  // number of pool threads.
  CooMatrix out = workspace != nullptr ? workspace->acquire_coo(a.rows, b.cols)
                                       : CooMatrix(a.rows, b.cols);
  std::size_t total = 0;
  for (const auto& blk : block_out) total += blk.nnz();
  out.reserve(total);
  ProductStats agg;
  for (std::int64_t blk = 0; blk < nblocks; ++blk) {
    out.append(block_out[blk]);
    agg.accumulate(block_stats[blk]);
    if (workspace != nullptr) workspace->release_coo(std::move(block_out[blk]));
  }
  if (stats != nullptr) *stats = agg;
  return out;
}

ProductStats estimate_partial_product(const CsrMatrix& a, const CsrMatrix& b,
                                      std::span<const index_t> a_rows,
                                      std::span<const std::uint8_t> b_mask,
                                      bool b_mask_value) {
  HH_CHECK_MSG(a.cols == b.rows, "incompatible shapes for product");
  ProductStats s;
  for (const index_t i : a_rows) {
    std::int64_t row_flops = 0;
    for (offset_t k = a.indptr[i]; k < a.indptr[i + 1]; ++k) {
      const index_t j = a.indices[k];
      if (!b_mask.empty() && (b_mask[j] != 0) != b_mask_value) continue;
      const offset_t blen = b.indptr[j + 1] - b.indptr[j];
      charge_a_entry(s, blen);
      row_flops += blen;
    }
    // Tuples at their upper bound: no cancellation information.
    charge_row(s, row_flops, row_flops);
  }
  return s;
}

MaskedRowCosts masked_row_costs(const CsrMatrix& a, const CsrMatrix& b,
                                std::span<const std::uint8_t> b_mask,
                                ThreadPool& pool) {
  HH_CHECK_MSG(a.cols == b.rows, "incompatible shapes for product");
  HH_CHECK(b_mask.size() == static_cast<std::size_t>(b.rows));
  MaskedRowCosts out;
  for (auto& rows : out.by_mask) rows.resize(static_cast<std::size_t>(a.rows));
  std::atomic<std::int64_t> output_nnz{0};
  pool.parallel_for(a.rows, [&](std::int64_t r0, std::int64_t r1) {
    std::vector<std::int64_t> mark(static_cast<std::size_t>(b.cols), 0);
    output_nnz += masked_rows(a, b, b_mask, static_cast<index_t>(r0),
                              static_cast<index_t>(r1), mark, out);
  });
  out.output_nnz = output_nnz.load();
  return out;
}

}  // namespace hh
