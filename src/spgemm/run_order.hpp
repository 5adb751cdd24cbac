// Ordering one SPA row into its run. The row-row kernels (paper §II-A)
// collect a row's distinct columns in first-touch order, and every run they
// write must be column-sorted for the Phase IV merge. A short row sorts. A
// longer row whose columns fall within a few 64-bit words sets one bit per
// column in a bitmap and reads the columns back in one ascending scan over
// those words (column sets packed into machine words, as in KKMEM, arXiv:
// 1801.03065). The choice follows the row's own size and span, as Liu &
// Vinter (arXiv:1504.05022) pick a method per row size, so it needs no
// option and never changes a value: both ways write the same run.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>

#include "sparse/types.hpp"

namespace hh {

/// Rows with at most this many columns always sort.
inline constexpr std::size_t kSortedRunMax = 32;

/// How order_run put a run in order.
enum class RunOrder { kSort, kBitmap };

/// Orders cols[0, n), the distinct columns of one row, ascending in place
/// and writes vals[m] = acc[cols[m]]. A row with n <= kSortedRunMax sorts,
/// and so does a row whose columns span more 64-bit words than
/// n·bit_width(n), about a sort's comparisons; any other row orders through
/// `bits`, one bit per column, which must be all clear on entry and is all
/// clear again on return: the scan clears every word it reads.
inline RunOrder order_run(index_t* cols, std::size_t n, const value_t* acc,
                          std::uint64_t* bits, value_t* vals) {
  if (n > kSortedRunMax) {
    const auto [lo, hi] = std::minmax_element(cols, cols + n);
    const auto w0 = static_cast<std::size_t>(*lo) / 64;
    const auto w1 = static_cast<std::size_t>(*hi) / 64;
    if (w1 - w0 < n * static_cast<std::size_t>(std::bit_width(n))) {
      for (std::size_t m = 0; m < n; ++m) {
        const auto c = static_cast<std::size_t>(cols[m]);
        bits[c / 64] |= std::uint64_t{1} << (c % 64);
      }
      std::size_t m = 0;
      for (std::size_t w = w0; w <= w1; ++w) {
        for (std::uint64_t word = bits[w]; word != 0; word &= word - 1) {
          const auto c = static_cast<index_t>(w * 64 + std::countr_zero(word));
          cols[m] = c;
          vals[m++] = acc[c];
        }
        bits[w] = 0;
      }
      return RunOrder::kBitmap;
    }
  }
  std::sort(cols, cols + n);
  for (std::size_t m = 0; m < n; ++m) vals[m] = acc[cols[m]];
  return RunOrder::kSort;
}

}  // namespace hh
