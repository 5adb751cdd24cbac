// Row-density histograms in the style of the paper's Fig. 1 / Fig. 5,
// including an ASCII renderer with a log-scale count axis and the
// high-density threshold marker.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace hh {

struct HistogramBin {
  std::int64_t lo = 0;  // inclusive
  std::int64_t hi = 0;  // inclusive
  std::int64_t count = 0;
};

/// Power-of-two bins: [1,1], [2,3], [4,7], ... Natural for heavy tails.
std::vector<HistogramBin> log2_histogram(std::span<const std::int64_t> data);

/// Renders bins as rows of '#' with a logarithmic count scale; bins at or
/// above `threshold` are tagged "HD" (gray bars in the paper's figures).
/// threshold < 0 disables tagging.
std::string render_histogram(const std::vector<HistogramBin>& bins,
                             std::int64_t threshold = -1, int width = 50);

}  // namespace hh
