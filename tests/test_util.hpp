// Shared helpers for the test suite: small deterministic random matrices, a
// dense-reference comparison that tolerates explicit zeros, a bit-for-bit
// comparison, a stored product's per-row stats, the Phase IV merge contract
// spelled out over free-form tuples, and operands that break or stretch the
// CSR invariants.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <numeric>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "sparse/csr.hpp"
#include "sparse/equality.hpp"
#include "spgemm/gustavson.hpp"
#include "spgemm/reference.hpp"
#include "spgemm/spgemm.hpp"
#include "util/prng.hpp"
#include "util/status.hpp"
#include "util/thread_pool.hpp"

namespace hh::test {

/// Random CSR with each entry present independently with probability
/// `density` and value in [0.5, 1.5]. Deterministic in seed.
inline CsrMatrix random_csr(index_t rows, index_t cols, double density,
                            std::uint64_t seed) {
  Xoshiro256 rng(seed);
  CsrMatrix m(rows, cols);
  for (index_t r = 0; r < rows; ++r) {
    for (index_t c = 0; c < cols; ++c) {
      if (rng.uniform() < density) {
        m.indices.push_back(c);
        m.values.push_back(0.5 + rng.uniform());
      }
    }
    m.indptr[r + 1] = static_cast<offset_t>(m.indices.size());
  }
  return m;
}

/// EXPECT that `got` equals the dense-reference product of a and b.
inline void expect_matches_reference(const CsrMatrix& a, const CsrMatrix& b,
                                     const CsrMatrix& got,
                                     const char* label = "product") {
  const CsrMatrix want = reference_multiply_dense(a, b);
  std::string why;
  EXPECT_TRUE(approx_equal(want, got, 1e-9, &why)) << label << ": " << why;
}

/// True when x and y hold the same bytes: memcmp, not ==, so -0.0 and 0.0
/// differ.
template <class Vector>
bool same_bytes(const Vector& x, const Vector& y) {
  return x.size() == y.size() &&
         (x.empty() ||
          std::memcmp(x.data(), y.data(), x.size() * sizeof(x[0])) == 0);
}

/// EXPECT that `got` is `want` bit for bit: shape, indptr, indices and value
/// bytes.
inline void expect_same_bits(const CsrMatrix& want, const CsrMatrix& got,
                             const std::string& label = "") {
  EXPECT_EQ(want.rows, got.rows) << label;
  EXPECT_EQ(want.cols, got.cols) << label;
  EXPECT_TRUE(same_bytes(want.indptr, got.indptr)) << label;
  EXPECT_TRUE(same_bytes(want.indices, got.indices)) << label;
  EXPECT_TRUE(same_bytes(want.values, got.values)) << label;
}

/// Each row's stats in the stored product a × b: Gustavson's C priced from
/// its row sizes by product_row_stats, the reference the symbolic passes
/// are checked against. Mask A's entries (mask_entries) to price a partial
/// product.
inline std::vector<ProductStats> stored_row_stats(const CsrMatrix& a,
                                                  const CsrMatrix& b,
                                                  ThreadPool& pool) {
  return product_row_stats(a, b, gustavson_spgemm_parallel(a, b, pool));
}

/// Σ of the stats of `rows`.
inline ProductStats sum_stats(std::span<const ProductStats> rows) {
  ProductStats s;
  for (const ProductStats& r : rows) s.accumulate(r);
  return s;
}

/// Every field of `s`, for one EXPECT_EQ per row.
inline std::array<std::int64_t, 9> stat_fields(const ProductStats& s) {
  return {s.rows,         s.a_nnz,        s.flops,
          s.tuples,       s.max_row_flops, s.warp_alu,
          s.flops_shared, s.flops_global, s.b_read_bytes};
}

/// One ⟨r, c, v⟩ tuple of a partial product.
struct Tuple {
  index_t r = 0;
  index_t c = 0;
  value_t v = 0;
};

/// The Phase IV contract spelled out: a stable sort of the tuples by (r, c),
/// then each key summed from value_t{0} in input order. Rows and columns
/// must lie in [0, rows) and [0, cols).
inline CsrMatrix stable_sort_reference(index_t rows, index_t cols,
                                       const std::vector<Tuple>& tuples) {
  std::vector<std::size_t> order(tuples.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t x, std::size_t y) {
                     return std::pair(tuples[x].r, tuples[x].c) <
                            std::pair(tuples[y].r, tuples[y].c);
                   });
  CsrMatrix out(rows, cols);
  for (std::size_t k = 0; k < order.size();) {
    const index_t r = tuples[order[k]].r, c = tuples[order[k]].c;
    value_t sum = 0;
    for (; k < order.size() && tuples[order[k]].r == r &&
           tuples[order[k]].c == c;
         ++k) {
      sum += tuples[order[k]].v;
    }
    out.indptr[r + 1]++;
    out.indices.push_back(c);
    out.values.push_back(sum);
  }
  for (index_t r = 0; r < rows; ++r) out.indptr[r + 1] += out.indptr[r];
  return out;
}

/// The ways an operand can break the invariants CsrMatrix::validate checks
/// with unsorted columns allowed.
enum class Malformation {
  kIndptrNotFromZero,
  kIndptrDecreasing,
  kIndicesShort,  // indptr.back() != indices.size()
  kValuesShort,   // values.size() != indices.size()
  kColumnPastEnd,
  kColumnNegative,
};

inline std::string malformation_name(Malformation how) {
  switch (how) {
    case Malformation::kIndptrNotFromZero: return "IndptrNotFromZero";
    case Malformation::kIndptrDecreasing: return "IndptrDecreasing";
    case Malformation::kIndicesShort: return "IndicesShort";
    case Malformation::kValuesShort: return "ValuesShort";
    case Malformation::kColumnPastEnd: return "ColumnPastEnd";
    case Malformation::kColumnNegative: return "ColumnNegative";
  }
  return "unknown";
}

/// Every malformation.
inline constexpr Malformation kAllMalformations[] = {
    Malformation::kIndptrNotFromZero, Malformation::kIndptrDecreasing,
    Malformation::kIndicesShort,      Malformation::kValuesShort,
    Malformation::kColumnPastEnd,     Malformation::kColumnNegative};

/// The words CsrMatrix::defect uses for malformed_4x4(how).
inline std::string malformation_phrase(Malformation how) {
  switch (how) {
    case Malformation::kIndptrNotFromZero: return "indptr starts at 1, not 0";
    case Malformation::kIndptrDecreasing: return "indptr decreasing at row 1";
    case Malformation::kIndicesShort:
      return "indices has 7 entries, indptr ends at 8";
    case Malformation::kValuesShort:
      return "values has 7 entries, indptr ends at 8";
    case Malformation::kColumnPastEnd: return "column 4 out of range in row 1";
    case Malformation::kColumnNegative:
      return "column -1 out of range in row 1";
  }
  return "unknown";
}

/// A well-formed 4×4 operand with two entries in every row.
inline CsrMatrix well_formed_4x4() {
  CsrMatrix m(4, 4);
  m.indptr = {0, 2, 4, 6, 8};
  m.indices = {0, 2, 1, 3, 0, 3, 1, 2};
  m.values = {1, 2, 3, 4, 5, 6, 7, 8};
  return m;
}

/// well_formed_4x4() broken in the one way `how` names.
inline CsrMatrix malformed_4x4(Malformation how) {
  CsrMatrix m = well_formed_4x4();
  switch (how) {
    case Malformation::kIndptrNotFromZero: m.indptr[0] = 1; break;
    case Malformation::kIndptrDecreasing: m.indptr[2] = 1; break;
    case Malformation::kIndicesShort: m.indices.pop_back(); break;
    case Malformation::kValuesShort: m.values.pop_back(); break;
    case Malformation::kColumnPastEnd: m.indices[3] = m.cols; break;
    case Malformation::kColumnNegative: m.indices[3] = -1; break;
  }
  return m;
}

/// EXPECT that submit() throws InvalidArgumentError naming `side`'s operand
/// and the defect `how` made, in words: no checked expression and no path.
template <class Submit>
void expect_malformed_message(Submit&& submit, const std::string& side,
                              Malformation how) {
  try {
    submit();
    ADD_FAILURE() << "no InvalidArgumentError for " << malformation_name(how);
  } catch (const InvalidArgumentError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(side + " operand is malformed: " +
                        malformation_phrase(how)),
              std::string::npos)
        << what;
    EXPECT_EQ(what.find("check failed"), std::string::npos) << what;
    EXPECT_EQ(what.find('/'), std::string::npos) << what;
  }
}

/// Names a malformation test instance after its parameter.
struct MalformationParamName {
  std::string operator()(
      const testing::TestParamInfo<Malformation>& info) const {
    return malformation_name(info.param);
  }
};

/// random_csr(rows, cols, density, seed) with each row's entries reversed
/// (so a row of two or more is unsorted) and its first column repeated at
/// the row's end with value 0.25: a well-formed operand every kernel must
/// accept, summing the duplicate.
inline CsrMatrix unsorted_with_duplicates(index_t rows, index_t cols,
                                          double density, std::uint64_t seed) {
  const CsrMatrix base = random_csr(rows, cols, density, seed);
  CsrMatrix m(rows, cols);
  for (index_t r = 0; r < rows; ++r) {
    const auto idx = base.row_indices(r);
    const auto val = base.row_values(r);
    for (std::size_t k = idx.size(); k-- > 0;) {
      m.indices.push_back(idx[k]);
      m.values.push_back(val[k]);
    }
    if (!idx.empty()) {
      m.indices.push_back(idx.front());
      m.values.push_back(0.25);
    }
    m.indptr[r + 1] = static_cast<offset_t>(m.indices.size());
  }
  return m;
}

/// EXPECT that `got` is the dense-reference product of a and b (within
/// 1e-9) with every row's columns strictly ascending.
inline void expect_sorted_reference(const CsrMatrix& a, const CsrMatrix& b,
                                    const CsrMatrix& got,
                                    const std::string& label) {
  expect_matches_reference(a, b, got, label.c_str());
  EXPECT_NO_THROW(got.validate(/*sorted=*/true)) << label;
}

}  // namespace hh::test
