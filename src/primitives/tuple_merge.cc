#include "primitives/tuple_merge.hpp"

#include <algorithm>
#include <array>
#include <memory>
#include <vector>

#include "util/check.hpp"

namespace hh {
namespace {

// Per-worker buffers for merging one row's runs.
struct RowScratch {
  std::vector<std::size_t> bounds;  // run boundaries, first 0, last n
  std::vector<index_t> c;
  std::vector<value_t> v;
};

// Stable merge of [lo, mid) and [mid, hi) of (sc, sv) into (dc, dv),
// taking the left run first on equal columns.
void merge_runs(const index_t* sc, const value_t* sv, index_t* dc,
                value_t* dv, std::size_t lo, std::size_t mid,
                std::size_t hi) {
  std::size_t i = lo, j = mid, o = lo;
  while (i < mid && j < hi) {
    const bool right = sc[j] < sc[i];
    const std::size_t k = right ? j++ : i++;
    dc[o] = sc[k];
    dv[o] = sv[k];
    ++o;
  }
  for (; i < mid; ++i, ++o) dc[o] = sc[i], dv[o] = sv[i];
  for (; j < hi; ++j, ++o) dc[o] = sc[j], dv[o] = sv[j];
}

// Sorts one row's bucket (c, v)[0, n) stably by column, sums each group of
// equal columns from value_t{0} in bucket order, writes the sums to the
// front of the bucket and returns how many there are.
std::size_t merge_row(index_t* c, value_t* v, std::size_t n, RowScratch& s) {
  if (n == 0) return 0;
  std::vector<std::size_t>& bounds = s.bounds;
  bounds.assign(1, 0);
  for (std::size_t i = 1; i < n; ++i) {
    if (c[i] < c[i - 1]) bounds.push_back(i);
  }
  bounds.push_back(n);

  // Bottom-up pairwise merge of adjacent runs, ping-ponging between the
  // bucket and the scratch buffers.
  const index_t* sc = c;
  const value_t* sv = v;
  if (bounds.size() > 2) {
    if (s.c.size() < n) {
      s.c.resize(n);
      s.v.resize(n);
    }
    index_t* src_c = c;
    value_t* src_v = v;
    index_t* dst_c = s.c.data();
    value_t* dst_v = s.v.data();
    while (bounds.size() > 2) {
      const std::size_t runs = bounds.size() - 1;
      std::size_t kept = 0;
      for (std::size_t k = 0; k < runs; k += 2) {
        const std::size_t lo = bounds[k], mid = bounds[k + 1];
        const std::size_t hi = k + 2 <= runs ? bounds[k + 2] : mid;
        merge_runs(src_c, src_v, dst_c, dst_v, lo, mid, hi);
        bounds[kept++] = lo;
      }
      bounds[kept++] = n;
      bounds.resize(kept);
      std::swap(src_c, dst_c);
      std::swap(src_v, dst_v);
    }
    sc = src_c;
    sv = src_v;
  }

  // Sum equal columns. When the sorted data is the bucket itself this
  // compacts in place: the write index never passes the read index.
  std::size_t out = 0;
  for (std::size_t i = 0; i < n;) {
    const index_t col = sc[i];
    value_t acc = 0;
    do {
      acc += sv[i++];
    } while (i < n && sc[i] == col);
    c[out] = col;
    v[out] = acc;
    ++out;
  }
  return out;
}

}  // namespace

CsrMatrix merged_coo_to_csr(const CooMatrix& coo, MergeStats* stats) {
  return merged_coo_to_csr(coo, ThreadPool::global(), stats);
}

CsrMatrix merged_coo_to_csr(const CooMatrix& coo, ThreadPool& pool,
                            MergeStats* stats) {
  const std::array<const CooMatrix*, 1> parts{&coo};
  return merged_coo_to_csr(parts, pool, stats);
}

CsrMatrix merged_coo_to_csr(std::span<const CooMatrix* const> parts,
                            ThreadPool& pool, MergeStats* stats) {
  HH_CHECK(!parts.empty() && parts.front() != nullptr);
  const index_t rows = parts.front()->rows;
  const index_t cols = parts.front()->cols;

  // 1. Count the tuples of each row (range-checking every tuple) and scan
  //    the counts into bucket offsets.
  std::vector<offset_t> start(static_cast<std::size_t>(rows) + 1, 0);
  for (const CooMatrix* p : parts) {
    HH_CHECK(p != nullptr);
    HH_CHECK_MSG(p->rows == rows && p->cols == cols,
                 "merging COO parts of different shape");
    HH_CHECK(p->r.size() == p->c.size() && p->c.size() == p->v.size());
    for (std::size_t i = 0; i < p->nnz(); ++i) {
      const index_t r = p->r[i], c = p->c[i];
      HH_CHECK_MSG(r >= 0 && r < rows && c >= 0 && c < cols,
                   "tuple (" << r << ", " << c << ") out of range for "
                             << rows << "x" << cols);
      ++start[static_cast<std::size_t>(r) + 1];
    }
  }
  for (index_t r = 0; r < rows; ++r) start[r + 1] += start[r];
  const auto n = static_cast<std::size_t>(start.back());

  // 2. Scatter each (c, v) into its row's bucket, parts in list order and
  //    tuples in input order.
  auto bucket_c = std::make_unique_for_overwrite<index_t[]>(n);
  auto bucket_v = std::make_unique_for_overwrite<value_t[]>(n);
  {
    std::vector<offset_t> cursor(start.begin(), start.end() - 1);
    for (const CooMatrix* p : parts) {
      for (std::size_t i = 0; i < p->nnz(); ++i) {
        const offset_t pos = cursor[p->r[i]]++;
        bucket_c[pos] = p->c[i];
        bucket_v[pos] = p->v[i];
      }
    }
  }

  // 3. Merge and sum each row's bucket; its distinct count goes to
  //    indptr[r + 1].
  CsrMatrix out(rows, cols);
  pool.parallel_for(rows, [&](std::int64_t r0, std::int64_t r1) {
    RowScratch scratch;
    for (auto r = static_cast<index_t>(r0); r < r1; ++r) {
      out.indptr[r + 1] = static_cast<offset_t>(merge_row(
          bucket_c.get() + start[r], bucket_v.get() + start[r],
          static_cast<std::size_t>(start[r + 1] - start[r]), scratch));
    }
  });

  // 4. Scan the counts into indptr and copy each row's sums into place.
  for (index_t r = 0; r < rows; ++r) out.indptr[r + 1] += out.indptr[r];
  out.indices.resize(static_cast<std::size_t>(out.nnz()));
  out.values.resize(out.indices.size());
  pool.parallel_for(rows, [&](std::int64_t r0, std::int64_t r1) {
    for (auto r = static_cast<index_t>(r0); r < r1; ++r) {
      const offset_t len = out.indptr[r + 1] - out.indptr[r];
      std::copy_n(bucket_c.get() + start[r], len,
                  out.indices.begin() + out.indptr[r]);
      std::copy_n(bucket_v.get() + start[r], len,
                  out.values.begin() + out.indptr[r]);
    }
  });

  if (stats != nullptr) {
    stats->tuples_in = static_cast<std::int64_t>(n);
    stats->tuples_out = out.nnz();
  }
  return out;
}

}  // namespace hh
