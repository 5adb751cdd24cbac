#include "powerlaw/histogram.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/check.hpp"

namespace hh {

std::vector<HistogramBin> log2_histogram(std::span<const std::int64_t> data) {
  std::vector<HistogramBin> out;
  out.push_back({0, 0, 0});  // empty rows get their own bin
  std::int64_t lo = 1;
  std::int64_t mx = 0;
  for (const std::int64_t x : data) mx = std::max(mx, x);
  while (lo <= std::max<std::int64_t>(mx, 1)) {
    out.push_back({lo, lo * 2 - 1, 0});
    lo *= 2;
  }
  for (const std::int64_t x : data) {
    if (x <= 0) {
      out[0].count++;
      continue;
    }
    std::size_t bin = 1;
    std::int64_t hi = 1;
    while (x > hi * 2 - 1) {
      hi *= 2;
      ++bin;
    }
    out[bin].count++;
  }
  return out;
}

std::string render_histogram(const std::vector<HistogramBin>& bins,
                             std::int64_t threshold, int width) {
  std::int64_t max_count = 1;
  for (const auto& b : bins) max_count = std::max(max_count, b.count);
  const double log_max = std::log10(static_cast<double>(max_count) + 1.0);

  std::ostringstream os;
  for (const auto& b : bins) {
    if (b.count == 0) continue;
    const double frac =
        std::log10(static_cast<double>(b.count) + 1.0) / log_max;
    const int bar = std::max(1, static_cast<int>(frac * width));
    os << "  [" << b.lo;
    if (b.hi != b.lo) os << "-" << b.hi;
    os << "] ";
    for (int i = 0; i < bar; ++i) os << '#';
    os << " " << b.count << " rows";
    if (threshold >= 0 && b.lo >= threshold) os << "  (HD)";
    os << "\n";
  }
  return os.str();
}

}  // namespace hh
