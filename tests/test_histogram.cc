#include "powerlaw/histogram.hpp"

#include <gtest/gtest.h>

#include "util/check.hpp"

namespace hh {
namespace {

TEST(Histogram, Log2BinsArePowersOfTwo) {
  const std::vector<std::int64_t> data{0, 1, 2, 3, 4, 7, 8, 100};
  const auto bins = log2_histogram(data);
  EXPECT_EQ(bins[0].lo, 0);
  EXPECT_EQ(bins[0].count, 1);  // the zero
  EXPECT_EQ(bins[1].lo, 1);
  EXPECT_EQ(bins[1].hi, 1);
  EXPECT_EQ(bins[2].lo, 2);
  EXPECT_EQ(bins[2].hi, 3);
  std::int64_t total = 0;
  for (const auto& b : bins) total += b.count;
  EXPECT_EQ(total, static_cast<std::int64_t>(data.size()));
}

TEST(Histogram, RenderMarksHighDensityBins) {
  const std::vector<std::int64_t> data{1, 1, 1, 64, 64};
  const auto bins = log2_histogram(data);
  const std::string s = render_histogram(bins, 32);
  EXPECT_NE(s.find("(HD)"), std::string::npos);
  EXPECT_NE(s.find('#'), std::string::npos);
}

TEST(Histogram, RenderWithoutThresholdHasNoHdTag) {
  const std::vector<std::int64_t> data{1, 2, 3};
  const std::string s = render_histogram(log2_histogram(data), -1);
  EXPECT_EQ(s.find("(HD)"), std::string::npos);
}

}  // namespace
}  // namespace hh
