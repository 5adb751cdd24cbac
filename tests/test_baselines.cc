#include "core/baselines.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "gen/datasets.hpp"
#include "spgemm/gustavson.hpp"
#include "test_util.hpp"
#include "util/check.hpp"

namespace hh {
namespace {

class BaselinesTest : public testing::Test {
 protected:
  BaselinesTest()
      : a_(make_dataset(dataset_spec("wiki-Vote"), 0.06)),
        want_(gustavson_spgemm(a_, a_)),
        pool_(2) {}

  void expect_correct(const RunResult& res, const char* label) {
    std::string why;
    EXPECT_TRUE(approx_equal(want_, res.c, 1e-9, &why)) << label << ": " << why;
    EXPECT_GT(res.report.total_s, 0) << label;
    EXPECT_EQ(res.report.output_nnz, want_.nnz()) << label;
  }

  CsrMatrix a_;
  CsrMatrix want_;
  HeteroPlatform plat_;
  ThreadPool pool_;
};

TEST_F(BaselinesTest, Hipc2012Correct) {
  expect_correct(run_hipc2012(a_, a_, plat_, pool_), "hipc2012");
}

TEST_F(BaselinesTest, Hipc2012UsesBothDevices) {
  const RunResult res = run_hipc2012(a_, a_, plat_, pool_);
  EXPECT_GT(res.report.phase2_cpu_s, 0);
  EXPECT_GT(res.report.phase2_gpu_s, 0);
}

TEST_F(BaselinesTest, UnsortedWorkqueueCorrect) {
  expect_correct(run_unsorted_workqueue(a_, a_, {}, plat_, pool_),
                 "unsorted-workqueue");
}

TEST_F(BaselinesTest, SortedWorkqueueCorrect) {
  expect_correct(run_sorted_workqueue(a_, a_, {}, plat_, pool_),
                 "sorted-workqueue");
}

TEST_F(BaselinesTest, CpuOnlyCorrectAndTransferFree) {
  const RunResult res = run_cpu_only_mkl(a_, a_, plat_, pool_);
  expect_correct(res, "mkl");
  EXPECT_DOUBLE_EQ(res.report.transfer_in_s, 0.0);
  EXPECT_DOUBLE_EQ(res.report.transfer_out_s, 0.0);
}

TEST_F(BaselinesTest, GpuOnlyCusparseCorrectAndPaysTransfers) {
  const RunResult res = run_gpu_only_cusparse(a_, a_, plat_, pool_);
  expect_correct(res, "cusparse");
  EXPECT_GT(res.report.transfer_in_s, 0.0);
  EXPECT_GT(res.report.transfer_out_s, 0.0);
}

TEST_F(BaselinesTest, GpuOnlyHipcKernelCorrect) {
  expect_correct(run_gpu_only_hipc_kernel(a_, a_, plat_, pool_), "gpu-hipc");
}

TEST_F(BaselinesTest, TunedGpuKernelBeatsGenericLibrary) {
  const RunResult tuned = run_gpu_only_hipc_kernel(a_, a_, plat_, pool_);
  const RunResult generic = run_gpu_only_cusparse(a_, a_, plat_, pool_);
  EXPECT_LT(tuned.report.phase2_gpu_s, generic.report.phase2_gpu_s);
}

TEST_F(BaselinesTest, AllBaselinesAgreeOnEveryDatasetFamily) {
  for (const char* name : {"email-Enron", "p2p-Gnutella31"}) {
    const CsrMatrix m = make_dataset(dataset_spec(name), 0.04);
    const CsrMatrix want = gustavson_spgemm(m, m);
    std::string why;
    for (const RunResult& res :
         {run_hipc2012(m, m, plat_, pool_),
          run_unsorted_workqueue(m, m, {}, plat_, pool_),
          run_sorted_workqueue(m, m, {}, plat_, pool_),
          run_cpu_only_mkl(m, m, plat_, pool_),
          run_gpu_only_cusparse(m, m, plat_, pool_)}) {
      EXPECT_TRUE(approx_equal(want, res.c, 1e-9, &why))
          << name << "/" << res.report.algorithm << ": " << why;
    }
  }
}

TEST_F(BaselinesTest, ReportsCarryAlgorithmNames) {
  EXPECT_EQ(run_hipc2012(a_, a_, plat_, pool_).report.algorithm, "HiPC2012");
  EXPECT_EQ(run_cpu_only_mkl(a_, a_, plat_, pool_).report.algorithm,
            "MKL (CPU only)");
  EXPECT_EQ(run_gpu_only_cusparse(a_, a_, plat_, pool_).report.algorithm,
            "cuSPARSE (GPU only)");
}

// Every baseline, over operands a and b.
std::vector<RunResult> all_baselines(const CsrMatrix& a, const CsrMatrix& b,
                                     const HeteroPlatform& plat,
                                     ThreadPool& pool) {
  std::vector<RunResult> out;
  out.push_back(run_hipc2012(a, b, plat, pool));
  out.push_back(run_unsorted_workqueue(a, b, {}, plat, pool));
  out.push_back(run_sorted_workqueue(a, b, {}, plat, pool));
  out.push_back(run_cpu_only_mkl(a, b, plat, pool));
  out.push_back(run_gpu_only_cusparse(a, b, plat, pool));
  out.push_back(run_gpu_only_hipc_kernel(a, b, plat, pool));
  return out;
}

// Unsorted and repeated columns are well-formed: every baseline sums the
// repeats and returns ascending rows, its merge counting C's tuples.
TEST_F(BaselinesTest, UnsortedAndDuplicateColumnsAreSummed) {
  const CsrMatrix a = test::unsorted_with_duplicates(60, 50, 0.1, 41);
  const CsrMatrix b = test::unsorted_with_duplicates(50, 70, 0.1, 42);
  for (const RunResult& res : all_baselines(a, b, plat_, pool_)) {
    test::expect_sorted_reference(a, b, res.c, res.report.algorithm);
    EXPECT_EQ(res.report.output_nnz, res.c.nnz()) << res.report.algorithm;
    EXPECT_EQ(res.report.merge.tuples_out, res.c.nnz())
        << res.report.algorithm;
  }
}

// Malformed operands on either side throw CheckError before any kernel
// reads an index.
class MalformedBaselineTest
    : public BaselinesTest,
      public testing::WithParamInterface<test::Malformation> {
 protected:
  template <class Run>
  void expect_throws(Run&& run) {
    const CsrMatrix bad = test::malformed_4x4(GetParam());
    const CsrMatrix good = test::well_formed_4x4();
    EXPECT_THROW(run(bad, good), CheckError);
    EXPECT_THROW(run(good, bad), CheckError);
  }
};

TEST_P(MalformedBaselineTest, Hipc2012Throws) {
  expect_throws([&](const CsrMatrix& a, const CsrMatrix& b) {
    return run_hipc2012(a, b, plat_, pool_);
  });
}

TEST_P(MalformedBaselineTest, UnsortedWorkqueueThrows) {
  expect_throws([&](const CsrMatrix& a, const CsrMatrix& b) {
    return run_unsorted_workqueue(a, b, {}, plat_, pool_);
  });
}

TEST_P(MalformedBaselineTest, SortedWorkqueueThrows) {
  expect_throws([&](const CsrMatrix& a, const CsrMatrix& b) {
    return run_sorted_workqueue(a, b, {}, plat_, pool_);
  });
}

TEST_P(MalformedBaselineTest, CpuOnlyThrows) {
  expect_throws([&](const CsrMatrix& a, const CsrMatrix& b) {
    return run_cpu_only_mkl(a, b, plat_, pool_);
  });
}

TEST_P(MalformedBaselineTest, GpuOnlyCusparseThrows) {
  expect_throws([&](const CsrMatrix& a, const CsrMatrix& b) {
    return run_gpu_only_cusparse(a, b, plat_, pool_);
  });
}

TEST_P(MalformedBaselineTest, GpuOnlyHipcKernelThrows) {
  expect_throws([&](const CsrMatrix& a, const CsrMatrix& b) {
    return run_gpu_only_hipc_kernel(a, b, plat_, pool_);
  });
}

INSTANTIATE_TEST_SUITE_P(Malformations, MalformedBaselineTest,
                         testing::ValuesIn(test::kAllMalformations),
                         test::MalformationParamName());

}  // namespace
}  // namespace hh
