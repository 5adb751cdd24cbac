#include "primitives/tuple_merge.hpp"

#include "util/check.hpp"

namespace hh {
namespace {

// One part's run of one row.
struct RowRun {
  const index_t* c = nullptr;
  const value_t* v = nullptr;
  std::size_t n = 0;
};

// A row's non-empty runs in part order; either may be empty.
struct RowRuns {
  RowRun first;
  RowRun second;
};

static_assert(kMaxRunsPerRow == 2, "RowRuns holds two runs");

RowRuns row_runs(std::span<const CsrMatrix* const> parts, index_t r) {
  RowRuns runs;
  int found = 0;
  for (const CsrMatrix* p : parts) {
    const offset_t lo = p->indptr[r];
    const offset_t hi = p->indptr[r + 1];
    HH_CHECK_MSG(0 <= lo && lo <= hi && hi <= p->nnz(),
                 "run store indptr malformed at row " << r);
    if (lo == hi) continue;
    HH_CHECK_MSG(found < kMaxRunsPerRow, "row " << r << " has more than "
                                                << kMaxRunsPerRow << " runs");
    (found++ == 0 ? runs.first : runs.second) = {
        p->indices.data() + lo, p->values.data() + lo,
        static_cast<std::size_t>(hi - lo)};
  }
  return runs;
}

// Throws unless the run's columns are strictly ascending within [0, cols).
void check_run(const RowRun& run, index_t r, index_t cols) {
  index_t prev = -1;
  for (std::size_t k = 0; k < run.n; ++k) {
    const index_t c = run.c[k];
    HH_CHECK_MSG(c > prev && c < cols,
                 "run of row " << r << " holds column " << c << " after "
                               << prev << ": not strictly ascending in [0, "
                               << cols << ")");
    prev = c;
  }
}

std::size_t union_size(const RowRuns& runs) {
  const RowRun& x = runs.first;
  const RowRun& y = runs.second;
  std::size_t i = 0, j = 0, n = 0;
  while (i < x.n && j < y.n) {
    const index_t cx = x.c[i], cy = y.c[j];
    i += cx <= cy ? 1 : 0;
    j += cy <= cx ? 1 : 0;
    ++n;
  }
  return n + (x.n - i) + (y.n - j);
}

// Merges the two runs into (c, v), each value summed from value_t{0} in
// run order.
void write_union(const RowRuns& runs, index_t* c, value_t* v) {
  const RowRun& x = runs.first;
  const RowRun& y = runs.second;
  std::size_t i = 0, j = 0, o = 0;
  for (; i < x.n && j < y.n; ++o) {
    if (x.c[i] < y.c[j]) {
      c[o] = x.c[i];
      v[o] = value_t{0} + x.v[i++];
    } else if (y.c[j] < x.c[i]) {
      c[o] = y.c[j];
      v[o] = value_t{0} + y.v[j++];
    } else {
      c[o] = x.c[i];
      v[o] = (value_t{0} + x.v[i++]) + y.v[j++];
    }
  }
  for (; i < x.n; ++i, ++o) c[o] = x.c[i], v[o] = value_t{0} + x.v[i];
  for (; j < y.n; ++j, ++o) c[o] = y.c[j], v[o] = value_t{0} + y.v[j];
}

}  // namespace

CsrMatrix merge_row_runs(std::span<const CsrMatrix* const> parts,
                         ThreadPool& pool, MergeStats* stats) {
  HH_CHECK(!parts.empty() && parts.front() != nullptr);
  const index_t rows = parts.front()->rows;
  const index_t cols = parts.front()->cols;
  std::int64_t tuples_in = 0;
  for (const CsrMatrix* p : parts) {
    HH_CHECK(p != nullptr);
    HH_CHECK_MSG(p->rows == rows && p->cols == cols,
                 "merging run stores of different shape");
    HH_CHECK(p->indptr.size() == static_cast<std::size_t>(rows) + 1 &&
             p->indptr.front() == 0 &&
             p->indices.size() == static_cast<std::size_t>(p->nnz()) &&
             p->values.size() == p->indices.size());
    tuples_in += p->nnz();
  }

  // 1. Count each row's distinct columns, checking its runs.
  CsrMatrix out(rows, cols);
  pool.parallel_for(rows, [&](std::int64_t r0, std::int64_t r1) {
    for (auto r = static_cast<index_t>(r0); r < r1; ++r) {
      const RowRuns runs = row_runs(parts, r);
      check_run(runs.first, r, cols);
      check_run(runs.second, r, cols);
      out.indptr[r + 1] = static_cast<offset_t>(union_size(runs));
    }
  });

  // 2. Scan the counts into indptr.
  for (index_t r = 0; r < rows; ++r) out.indptr[r + 1] += out.indptr[r];
  out.indices.resize(static_cast<std::size_t>(out.nnz()));
  out.values.resize(out.indices.size());

  // 3. Merge each row's runs straight into its slot of C.
  pool.parallel_for(rows, [&](std::int64_t r0, std::int64_t r1) {
    for (auto r = static_cast<index_t>(r0); r < r1; ++r) {
      write_union(row_runs(parts, r), out.indices.data() + out.indptr[r],
                  out.values.data() + out.indptr[r]);
    }
  });

  if (stats != nullptr) {
    stats->tuples_in = tuples_in;
    stats->tuples_out = out.nnz();
  }
  return out;
}

}  // namespace hh
