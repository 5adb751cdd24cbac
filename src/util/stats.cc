#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace hh {

double mean(std::span<const double> xs) {
  HH_CHECK(!xs.empty());
  double s = 0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double geomean(std::span<const double> xs) {
  HH_CHECK(!xs.empty());
  double s = 0;
  for (double x : xs) {
    HH_CHECK_MSG(x > 0, "geomean requires positive values");
    s += std::log(x);
  }
  return std::exp(s / static_cast<double>(xs.size()));
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0;
  const std::size_t mid = xs.size() / 2;
  std::nth_element(xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(mid),
                   xs.end());
  double hi = xs[mid];
  if (xs.size() % 2 == 1) return hi;
  double lo = *std::max_element(xs.begin(),
                                xs.begin() + static_cast<std::ptrdiff_t>(mid));
  return 0.5 * (lo + hi);
}

double percentile_sorted(std::span<const double> xs, double q) {
  HH_CHECK_MSG(q > 0 && q <= 1, "percentile requires q in (0, 1]");
  if (xs.empty()) return 0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(xs.size())));
  return xs[std::min(xs.size(), std::max<std::size_t>(rank, 1)) - 1];
}

double percentile(std::vector<double> xs, double q) {
  std::sort(xs.begin(), xs.end());
  return percentile_sorted(xs, q);
}

}  // namespace hh
