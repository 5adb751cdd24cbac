#include "gen/datasets.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "powerlaw/fit.hpp"
#include "sparse/row_stats.hpp"
#include "util/check.hpp"

namespace hh {
namespace {

TEST(Datasets, TableHasTwelveEntries) {
  EXPECT_EQ(table1_datasets().size(), 12u);
}

TEST(Datasets, SpecLookup) {
  const DatasetSpec& s = dataset_spec("webbase-1M");
  EXPECT_EQ(s.rows, 1000005);
  EXPECT_EQ(s.nnz, 3105536);
  EXPECT_DOUBLE_EQ(s.alpha, 2.1);
  EXPECT_THROW(dataset_spec("no-such-matrix"), CheckError);
}

TEST(Datasets, AnalogueMatchesRowAndNnzBudget) {
  const DatasetSpec& spec = dataset_spec("ca-CondMat");
  const CsrMatrix m = make_dataset(spec, 0.5);
  m.validate(true);
  EXPECT_NEAR(static_cast<double>(m.rows), spec.rows * 0.5, spec.rows * 0.02);
  EXPECT_NEAR(static_cast<double>(m.nnz()), static_cast<double>(spec.nnz) * 0.5,
              static_cast<double>(spec.nnz) * 0.5 * 0.3);
}

TEST(Datasets, ScaleFreeAnalogueHasHeavyTail) {
  const CsrMatrix m = make_dataset(dataset_spec("webbase-1M"), 0.02);
  const RowStats s = row_stats(m);
  EXPECT_GT(static_cast<double>(s.max), 15.0 * s.mean);
}

TEST(Datasets, NonScaleFreeAnalogueIsNarrow) {
  const CsrMatrix m = make_dataset(dataset_spec("roadNet-CA"), 0.02);
  const RowStats s = row_stats(m);
  EXPECT_LT(static_cast<double>(s.max), 10.0 * s.mean);
}

TEST(Datasets, FittedAlphaOrdersWithSpecAlpha) {
  // The webbase analogue (α = 2.1) must fit a visibly smaller exponent than
  // the dblp2010 analogue (α = 5.79).
  const CsrMatrix low = make_dataset(dataset_spec("webbase-1M"), 0.02);
  const CsrMatrix high = make_dataset(dataset_spec("dblp2010"), 0.06);
  const double alpha_low = fit_power_law(row_nnz_vector(low)).alpha;
  const double alpha_high = fit_power_law(row_nnz_vector(high)).alpha;
  EXPECT_LT(alpha_low, alpha_high);
}

TEST(Datasets, DeterministicPerName) {
  const CsrMatrix a = make_dataset(dataset_spec("wiki-Vote"), 0.5);
  const CsrMatrix b = make_dataset(dataset_spec("wiki-Vote"), 0.5);
  EXPECT_EQ(a.indices, b.indices);
  const CsrMatrix c = make_dataset(dataset_spec("wiki-Vote"), 0.5, /*salt=*/1);
  EXPECT_NE(a.indices, c.indices);
}

TEST(Datasets, RejectsBadScale) {
  EXPECT_THROW(make_dataset(dataset_spec("wiki-Vote"), 0.0), CheckError);
  EXPECT_THROW(make_dataset(dataset_spec("wiki-Vote"), 1.5), CheckError);
}

TEST(Datasets, DefaultBenchScaleInRange) {
  const double s = default_bench_scale();
  EXPECT_GT(s, 0.0);
  EXPECT_LE(s, 1.0);
}

TEST(Datasets, DefaultBenchScaleReadsHhScaleElseATenth) {
  const char* env = std::getenv("HH_SCALE");
  const std::string saved = env != nullptr ? env : "";
  ::setenv("HH_SCALE", "0.3", 1);
  EXPECT_DOUBLE_EQ(default_bench_scale(), 0.3);
  for (const char* bad : {"0", "1.5", "-1", "garbage"}) {
    ::setenv("HH_SCALE", bad, 1);
    EXPECT_DOUBLE_EQ(default_bench_scale(), 0.1) << bad;
  }
  ::unsetenv("HH_SCALE");
  EXPECT_DOUBLE_EQ(default_bench_scale(), 0.1);
  if (env != nullptr) ::setenv("HH_SCALE", saved.c_str(), 1);
}

}  // namespace
}  // namespace hh
