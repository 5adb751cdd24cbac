#include "sparse/csr.hpp"

#include <algorithm>
#include <numeric>
#include <sstream>

#include "util/check.hpp"

namespace hh {

namespace {

template <class... Parts>
std::string words(const Parts&... parts) {
  std::ostringstream os;
  (os << ... << parts);
  return os.str();
}

}  // namespace

std::string CsrMatrix::defect(bool sorted) const {
  if (rows < 0 || cols < 0) return words("negative shape ", rows, "x", cols);
  if (indptr.size() != static_cast<std::size_t>(rows) + 1) {
    return words("indptr has ", indptr.size(), " entries for ", rows,
                 " rows");
  }
  if (indptr.front() != 0) {
    return words("indptr starts at ", indptr.front(), ", not 0");
  }
  for (index_t r = 0; r < rows; ++r) {
    if (indptr[r] > indptr[r + 1]) {
      return words("indptr decreasing at row ", r);
    }
  }
  const auto nz = static_cast<std::size_t>(indptr.back());
  if (indices.size() != nz) {
    return words("indices has ", indices.size(), " entries, indptr ends at ",
                 nz);
  }
  if (values.size() != nz) {
    return words("values has ", values.size(), " entries, indptr ends at ",
                 nz);
  }
  for (index_t r = 0; r < rows; ++r) {
    for (offset_t k = indptr[r]; k < indptr[r + 1]; ++k) {
      if (indices[k] < 0 || indices[k] >= cols) {
        return words("column ", indices[k], " out of range in row ", r);
      }
      if (sorted && k > indptr[r] && indices[k - 1] >= indices[k]) {
        return words("unsorted/duplicate column in row ", r);
      }
    }
  }
  return {};
}

void CsrMatrix::validate(bool sorted) const {
  const std::string why = defect(sorted);
  HH_CHECK_MSG(why.empty(), why);
}

void CsrMatrix::sort_rows() {
  std::vector<std::pair<index_t, value_t>> buf;
  for (index_t r = 0; r < rows; ++r) {
    const offset_t b = indptr[r], e = indptr[r + 1];
    if (e - b <= 1) continue;
    bool is_sorted = true;
    for (offset_t k = b + 1; k < e; ++k) {
      if (indices[k - 1] >= indices[k]) {
        is_sorted = false;
        break;
      }
    }
    if (is_sorted) continue;
    buf.clear();
    for (offset_t k = b; k < e; ++k) buf.emplace_back(indices[k], values[k]);
    std::sort(buf.begin(), buf.end(),
              [](const auto& x, const auto& y) { return x.first < y.first; });
    for (offset_t k = b; k < e; ++k) {
      indices[k] = buf[k - b].first;
      values[k] = buf[k - b].second;
    }
  }
}

std::string CsrMatrix::summary() const {
  std::ostringstream os;
  os << rows << "x" << cols << ", nnz=" << nnz();
  return os.str();
}

CsrMatrix csr_from_triplets(index_t rows, index_t cols,
                            std::span<const index_t> tr,
                            std::span<const index_t> tc,
                            std::span<const value_t> tv) {
  HH_CHECK(tr.size() == tc.size() && tc.size() == tv.size());
  const std::size_t n = tr.size();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (tr[a] != tr[b]) return tr[a] < tr[b];
    return tc[a] < tc[b];
  });

  CsrMatrix m(rows, cols);
  m.indices.reserve(n);
  m.values.reserve(n);
  index_t last_r = -1, last_c = -1;
  for (std::size_t pos = 0; pos < n; ++pos) {
    const std::size_t i = order[pos];
    HH_CHECK_MSG(tr[i] >= 0 && tr[i] < rows, "triplet row out of range");
    HH_CHECK_MSG(tc[i] >= 0 && tc[i] < cols, "triplet col out of range");
    if (tr[i] == last_r && tc[i] == last_c) {
      m.values.back() += tv[i];  // duplicate (r, c): accumulate
      continue;
    }
    m.indices.push_back(tc[i]);
    m.values.push_back(tv[i]);
    m.indptr[tr[i] + 1]++;
    last_r = tr[i];
    last_c = tc[i];
  }
  for (index_t r = 0; r < rows; ++r) m.indptr[r + 1] += m.indptr[r];
  return m;
}

CsrMatrix csr_identity(index_t n) {
  CsrMatrix m(n, n);
  m.indices.resize(n);
  m.values.assign(n, value_t{1});
  for (index_t i = 0; i < n; ++i) {
    m.indices[i] = i;
    m.indptr[i + 1] = i + 1;
  }
  return m;
}

}  // namespace hh
