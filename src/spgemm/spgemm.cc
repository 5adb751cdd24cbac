#include "spgemm/spgemm.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <functional>
#include <span>
#include <vector>

#include "spgemm/gustavson.hpp"
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
    case SpgemmKind::kRowColumn:
      return "row-column";
  }
  return "unknown";
}

void check_operands(const CsrMatrix& a, const CsrMatrix& b) {
  HH_CHECK_MSG(a.cols == b.rows, "incompatible shapes for product");
  a.validate(/*sorted=*/false);
  if (&b != &a) b.validate(/*sorted=*/false);
}

CsrMatrix multiply(const CsrMatrix& a, const CsrMatrix& b, SpgemmKind kind,
                   ThreadPool& pool) {
  check_operands(a, b);
  switch (kind) {
    case SpgemmKind::kGustavson:
      return gustavson_spgemm_parallel(a, b, pool);
    case SpgemmKind::kRowColumn:
      return row_column_spgemm(a, b);
  }
  HH_CHECK_MSG(false, "unreachable");
  return {};
}

namespace {

// The counters product_row_stats, the estimates and the symbolic passes
// charge, in one place so a stored product's stats and a priced one's
// cannot drift apart.

// One visited A entry a(i, j), where B row j has `blen` nonzeros. Its
// multiply-adds are summed per row by the caller and charged by charge_row.
// restate() moves the fields set here between a row's B sides; the two must
// name the same fields.
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

// Threshold grids. A row length's interval is the number of grid points <=
// it, so the row is H at grid[g] exactly when g < its interval. With at most
// kMaxGridPoints points an interval fits in kIntervalBits bits.
constexpr int kIntervalBits = 8;
constexpr std::int64_t kIntervalMask = (std::int64_t{1} << kIntervalBits) - 1;
static_assert(kMaxGridPoints <= static_cast<std::size_t>(kIntervalMask));
// The column markers of row_costs_on_grid hold a row key above two
// intervals.
constexpr int kKeyShift = 2 * kIntervalBits;

void check_grid(std::span<const offset_t> grid) {
  HH_CHECK_MSG(!grid.empty(), "empty threshold grid");
  HH_CHECK_MSG(grid.size() <= kMaxGridPoints,
               "threshold grid has " << grid.size() << " points, at most "
                                     << kMaxGridPoints);
  HH_CHECK_MSG(grid.front() >= 1, "threshold grid holds t = " << grid.front());
  for (std::size_t g = 1; g < grid.size(); ++g) {
    HH_CHECK_MSG(grid[g - 1] < grid[g],
                 "threshold grid is not strictly ascending at point " << g);
  }
}

std::vector<std::uint8_t> row_intervals(const CsrMatrix& m,
                                        std::span<const offset_t> grid) {
  std::vector<std::uint8_t> out(static_cast<std::size_t>(m.rows));
  for (index_t r = 0; r < m.rows; ++r) {
    out[static_cast<std::size_t>(r)] = static_cast<std::uint8_t>(
        std::upper_bound(grid.begin(), grid.end(), m.row_nnz(r)) -
        grid.begin());
  }
  return out;
}

// One row's costs moving at one grid interval: the row's A entries whose B
// row has its length in the interval leave the B_H side for the B_L side,
// and the output columns they decide move with them.
struct RowChange {
  index_t row = 0;
  std::int64_t a_nnz = 0;  // the charge_a_entry counters of those entries
  std::int64_t warp_alu = 0;
  std::int64_t b_read_bytes = 0;
  std::int64_t flops = 0;         // their multiply-adds
  std::int64_t h_tuples_out = 0;  // columns no B_H entry reaches any more
  std::int64_t l_tuples_in = 0;   // columns a B_L entry reaches first here
};

// One row's counters in one B-row interval while the pass walks the row.
struct IntervalCounters {
  ProductStats entries;  // charge_a_entry only
  std::int64_t flops = 0;
  std::int64_t h_tuples_out = 0;
  std::int64_t l_tuples_in = 0;
};

// The one-row stats `s` with sign × the change's entry counters (the fields
// charge_a_entry adds) and multiply-adds added, charged as a row again with
// `tuples` output columns.
ProductStats restate(const ProductStats& s, const RowChange& c,
                     std::int64_t sign, std::int64_t tuples) {
  ProductStats r;
  r.a_nnz = s.a_nnz + sign * c.a_nnz;
  r.warp_alu = s.warp_alu + sign * c.warp_alu;
  r.b_read_bytes = s.b_read_bytes + sign * c.b_read_bytes;
  charge_row(r, s.flops + sign * c.flops, tuples);
  return r;
}

// Per-block worker of row_costs_on_grid: each row's costs at grid[0] go to
// `costs`, and its changes to changes[interval] for the intervals a later
// grid point reaches (interval 0 is already on the B_L side at grid[0], and
// no grid point reaches the last one). mark[col] packs (row + 1) <<
// kKeyShift with the smallest and the largest interval of the row's entries
// that reach col so far, so one array serves both sides and a zero-filled
// array matches no row; the column's B_L entry and B_H exit are counted at
// those two intervals and moved whenever one widens. Each row's distinct
// column count goes to row_nnz[i] when row_nnz is non-empty. Returns the
// block's distinct (r, c) count.
std::int64_t row_changes(const CsrMatrix& a, const CsrMatrix& b,
                         std::span<const std::uint8_t> b_interval, index_t lo,
                         index_t hi, std::vector<std::int64_t>& mark,
                         std::vector<IntervalCounters>& at,
                         MaskedRowCosts& costs,
                         std::vector<std::vector<RowChange>>& changes,
                         std::span<offset_t> row_nnz) {
  std::int64_t out_nnz = 0;
  for (index_t i = lo; i < hi; ++i) {
    const std::int64_t key = static_cast<std::int64_t>(i) + 1;
    std::int64_t tuples = 0;
    std::size_t first = at.size();
    std::size_t last = 0;
    for (offset_t k = a.indptr[i]; k < a.indptr[i + 1]; ++k) {
      const index_t j = a.indices[k];
      const std::size_t in = b_interval[static_cast<std::size_t>(j)];
      const offset_t blen = b.indptr[j + 1] - b.indptr[j];
      charge_a_entry(at[in].entries, blen);
      at[in].flops += blen;
      first = std::min(first, in);
      last = std::max(last, in);
      const auto in_bits = static_cast<std::int64_t>(in);
      for (offset_t l = b.indptr[j]; l < b.indptr[j + 1]; ++l) {
        std::int64_t& m = mark[static_cast<std::size_t>(b.indices[l])];
        if ((m >> kKeyShift) != key) {
          m = key << kKeyShift | in_bits << kIntervalBits | in_bits;
          ++at[in].h_tuples_out;
          ++at[in].l_tuples_in;
          ++tuples;
          continue;
        }
        const std::int64_t min_in = (m >> kIntervalBits) & kIntervalMask;
        const std::int64_t max_in = m & kIntervalMask;
        if (in_bits > max_in) {
          --at[static_cast<std::size_t>(max_in)].h_tuples_out;
          ++at[in].h_tuples_out;
          m += in_bits - max_in;
        } else if (in_bits < min_in) {
          --at[static_cast<std::size_t>(min_in)].l_tuples_in;
          ++at[in].l_tuples_in;
          m -= (min_in - in_bits) << kIntervalBits;
        }
      }
    }
    ProductStats high;
    ProductStats low;
    std::int64_t high_flops = 0;
    std::int64_t high_tuples = tuples;
    if (first == 0) {
      const IntervalCounters& c = at[0];
      low = c.entries;
      high_tuples -= c.h_tuples_out;
      charge_row(low, c.flops, c.l_tuples_in);
      at[0] = {};
      first = 1;
    } else {
      charge_row(low, 0, 0);
    }
    for (std::size_t in = first; in <= last; ++in) {
      const IntervalCounters& c = at[in];
      high.accumulate(c.entries);
      high_flops += c.flops;
      if (in < changes.size() && c.entries.a_nnz > 0) {
        changes[in].push_back({i, c.entries.a_nnz, c.entries.warp_alu,
                               c.entries.b_read_bytes, c.flops,
                               c.h_tuples_out, c.l_tuples_in});
      }
      at[in] = {};
    }
    charge_row(high, high_flops, high_tuples);
    costs.by_mask[1][static_cast<std::size_t>(i)] = high;
    costs.by_mask[0][static_cast<std::size_t>(i)] = low;
    if (!row_nnz.empty()) row_nnz[static_cast<std::size_t>(i)] = tuples;
    out_nnz += tuples;
  }
  return out_nnz;
}

}  // namespace

std::vector<ProductStats> product_row_stats(const CsrMatrix& a,
                                            const CsrMatrix& b,
                                            const CsrMatrix& c) {
  HH_CHECK(a.cols == b.rows && c.rows == a.rows && c.cols == b.cols);
  std::vector<ProductStats> out(static_cast<std::size_t>(a.rows));
  for (index_t i = 0; i < a.rows; ++i) {
    ProductStats& s = out[static_cast<std::size_t>(i)];
    std::int64_t row_flops = 0;
    for (offset_t k = a.indptr[i]; k < a.indptr[i + 1]; ++k) {
      const index_t j = a.indices[k];
      const offset_t blen = b.indptr[j + 1] - b.indptr[j];
      charge_a_entry(s, blen);
      row_flops += blen;
    }
    charge_row(s, row_flops, c.row_nnz(i));
  }
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

namespace {

// The pass behind row_costs_on_grid and row_costs_at: each row's costs at
// grid[0] into `costs` (sized here), and its later changes into
// changes[block][interval] for fixed blocks of kBlockRows rows, filled by
// whichever worker takes the block; each worker keeps one mark array and
// one set of interval counters for the whole pass.
constexpr std::int64_t kBlockRows = 1024;

std::vector<std::vector<std::vector<RowChange>>> costs_pass(
    const CsrMatrix& a, const CsrMatrix& b, std::span<const offset_t> grid,
    ThreadPool& pool, MaskedRowCosts& costs, std::span<offset_t> row_nnz) {
  HH_CHECK_MSG(a.cols == b.rows, "incompatible shapes for product");
  check_grid(grid);
  HH_CHECK(row_nnz.empty() ||
           row_nnz.size() == static_cast<std::size_t>(a.rows));
  const std::vector<std::uint8_t> b_interval = row_intervals(b, grid);
  for (auto& rows : costs.by_mask) rows.resize(static_cast<std::size_t>(a.rows));

  const auto nblocks =
      static_cast<std::size_t>((a.rows + kBlockRows - 1) / kBlockRows);
  std::vector<std::vector<std::vector<RowChange>>> changes(
      nblocks, std::vector<std::vector<RowChange>>(grid.size()));
  std::vector<std::int64_t> block_nnz(nblocks);
  on_workers(pool, nblocks, [&](auto take) {
    std::vector<std::int64_t> mark(static_cast<std::size_t>(b.cols), 0);
    std::vector<IntervalCounters> at(grid.size() + 1);
    for (std::size_t blk; (blk = take()) < nblocks;) {
      const std::int64_t lo = static_cast<std::int64_t>(blk) * kBlockRows;
      const std::int64_t hi = std::min<std::int64_t>(a.rows, lo + kBlockRows);
      block_nnz[blk] = row_changes(
          a, b, b_interval, static_cast<index_t>(lo), static_cast<index_t>(hi),
          mark, at, costs, changes[blk], row_nnz);
    }
  });
  for (const std::int64_t n : block_nnz) costs.output_nnz += n;
  return changes;
}

}  // namespace

void row_costs_on_grid(
    const CsrMatrix& a, const CsrMatrix& b, std::span<const offset_t> grid,
    ThreadPool& pool,
    const std::function<void(std::size_t, const MaskedRowCosts&)>& visit) {
  MaskedRowCosts costs;
  const auto changes = costs_pass(a, b, grid, pool, costs, {});
  // Ascending t: before pricing point g > 0, the changes of interval g move
  // their rows' entries and columns from the B_H side to the B_L side.
  for (std::size_t g = 0; g < grid.size(); ++g) {
    for (const auto& block : changes) {
      for (const RowChange& c : block[g]) {
        ProductStats& high = costs.by_mask[1][static_cast<std::size_t>(c.row)];
        ProductStats& low = costs.by_mask[0][static_cast<std::size_t>(c.row)];
        high = restate(high, c, -1, high.tuples - c.h_tuples_out);
        low = restate(low, c, 1, low.tuples + c.l_tuples_in);
      }
    }
    visit(g, costs);
  }
}

MaskedRowCosts row_costs_at(const CsrMatrix& a, const CsrMatrix& b, offset_t t,
                            ThreadPool& pool, std::span<offset_t> row_nnz) {
  // One grid point: the pass leaves the costs at grid[0] and no change a
  // later point would replay.
  const offset_t grid[] = {t};
  MaskedRowCosts costs;
  costs_pass(a, b, grid, pool, costs, row_nnz);
  return costs;
}

std::vector<SplitEstimate> estimate_splits_on_grid(
    const CsrMatrix& a, const CsrMatrix& b, std::span<const offset_t> grid) {
  HH_CHECK_MSG(a.cols == b.rows, "incompatible shapes for product");
  check_grid(grid);
  const std::size_t points = grid.size();
  const std::size_t intervals = points + 1;
  const std::vector<std::uint8_t> a_interval = row_intervals(a, grid);
  const std::vector<std::uint8_t> b_interval = row_intervals(b, grid);
  std::vector<SplitEstimate> out(points);

  // The per-entry counters add up, so they are binned by (A-row interval,
  // B-row interval). The per-row ones do not (max_row_flops, the
  // shared/global split), so each row walks the grid with its multiply-adds
  // per B-row interval, charging tuples at their upper bound as
  // estimate_partial_product does.
  std::vector<ProductStats> cells(intervals * intervals);
  std::vector<std::int64_t> row_flops(intervals, 0);
  for (index_t i = 0; i < a.rows; ++i) {
    const std::size_t ai = a_interval[static_cast<std::size_t>(i)];
    std::int64_t total = 0;
    for (offset_t k = a.indptr[i]; k < a.indptr[i + 1]; ++k) {
      const index_t j = a.indices[k];
      const std::size_t bi = b_interval[static_cast<std::size_t>(j)];
      const offset_t blen = b.indptr[j + 1] - b.indptr[j];
      charge_a_entry(cells[ai * intervals + bi], blen);
      row_flops[bi] += blen;
      total += blen;
    }
    std::int64_t low = 0;
    for (std::size_t g = 0; g < points; ++g) {
      low += row_flops[g];
      auto& side = out[g].by_side[ai > g ? 1 : 0];
      charge_row(side[1], total - low, total - low);
      charge_row(side[0], low, low);
    }
    std::fill(row_flops.begin(), row_flops.end(), 0);
  }

  // Rows and nonzeros per interval give both splits' sizes.
  std::vector<index_t> a_rows(intervals, 0);
  std::vector<index_t> b_rows(intervals, 0);
  std::vector<offset_t> b_nnz(intervals, 0);
  for (const std::uint8_t in : a_interval) ++a_rows[in];
  for (index_t j = 0; j < b.rows; ++j) {
    const std::size_t in = b_interval[static_cast<std::size_t>(j)];
    ++b_rows[in];
    b_nnz[in] += b.row_nnz(j);
  }
  for (std::size_t g = 0; g < points; ++g) {
    SplitEstimate& e = out[g];
    for (std::size_t in = 0; in < intervals; ++in) {
      const std::size_t side = in > g ? 1 : 0;
      for (std::size_t bi = 0; bi < intervals; ++bi) {
        e.by_side[side][bi > g ? 1 : 0].accumulate(cells[in * intervals + bi]);
      }
      e.a_rows[side] += a_rows[in];
      e.b_rows[side] += b_rows[in];
      e.b_nnz[side] += b_nnz[in];
    }
  }
  return out;
}

}  // namespace hh
