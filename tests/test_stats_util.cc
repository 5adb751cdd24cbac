#include "util/stats.hpp"

#include <gtest/gtest.h>

#include "util/check.hpp"

namespace hh {
namespace {

TEST(Stats, Mean) {
  const std::vector<double> xs{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(mean(xs), 2.5);
}

TEST(Stats, MeanOfSingle) {
  const std::vector<double> xs{7};
  EXPECT_DOUBLE_EQ(mean(xs), 7.0);
}

TEST(Stats, MeanEmptyThrows) {
  const std::vector<double> xs;
  EXPECT_THROW(mean(xs), CheckError);
}

// median and the percentiles are total over empty samples (a merged group
// report can legitimately aggregate a shard that contributed zero samples);
// mean/geomean above keep their throwing contract.
TEST(Stats, MedianAndPercentilesAreTotalOverEmptySamples) {
  const std::vector<double> none;
  EXPECT_DOUBLE_EQ(median(none), 0.0);
  EXPECT_DOUBLE_EQ(percentile(none, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(none, 0.99), 0.0);
}

TEST(Stats, Geomean) {
  const std::vector<double> xs{1, 4};
  EXPECT_NEAR(geomean(xs), 2.0, 1e-12);
}

TEST(Stats, GeomeanRequiresPositive) {
  const std::vector<double> xs{1, -4};
  EXPECT_THROW(geomean(xs), CheckError);
}

TEST(Stats, MedianOdd) {
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
}

TEST(Stats, MedianEven) {
  EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
}

// ------------------------------------------------- nearest-rank percentile

TEST(Stats, PercentileSingleElementAnswersEveryQ) {
  const std::vector<double> xs{42};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.01), 42.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 0.50), 42.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 1.00), 42.0);
}

TEST(Stats, PercentileTwoElements) {
  // rank = ceil(q * 2): q <= 0.5 picks the smaller, q > 0.5 the larger.
  const std::vector<double> xs{7, 3};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.50), 3.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 0.51), 7.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 0.95), 7.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 1.00), 7.0);
}

TEST(Stats, PercentileFullQuantileIsMax) {
  const std::vector<double> xs{5, 1, 4, 2, 3};
  EXPECT_DOUBLE_EQ(percentile(xs, 1.0), 5.0);
}

TEST(Stats, PercentileEmptyIsZero) {
  EXPECT_DOUBLE_EQ(percentile({}, 0.5), 0.0);
}

TEST(Stats, PercentileRejectsOutOfRangeQ) {
  const std::vector<double> xs{1, 2, 3};
  EXPECT_THROW(percentile(xs, 0.0), CheckError);
  EXPECT_THROW(percentile(xs, 1.5), CheckError);
}

TEST(Stats, PercentileSortsUnsortedInput) {
  const std::vector<double> xs{9, 1, 8, 2, 7, 3, 6, 4, 5, 10};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.90), 9.0);  // rank ceil(9) = 9th of 10
  EXPECT_DOUBLE_EQ(percentile(xs, 0.95), 10.0);
}

TEST(Stats, PercentileSortedAgreesWithPercentile) {
  const std::vector<double> sorted{1, 2, 3, 4, 5, 6, 7, 8};
  for (const double q : {0.25, 0.5, 0.75, 0.95, 1.0}) {
    EXPECT_DOUBLE_EQ(percentile_sorted(sorted, q), percentile(sorted, q));
  }
}

}  // namespace
}  // namespace hh
