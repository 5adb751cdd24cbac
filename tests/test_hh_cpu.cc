#include "core/hh_cpu.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/hh_stages.hpp"
#include "core/partition_plan.hpp"
#include "core/threshold.hpp"
#include "gen/datasets.hpp"
#include "gen/powerlaw_gen.hpp"
#include "sparse/convert.hpp"
#include "spgemm/gustavson.hpp"
#include "spgemm/spgemm.hpp"
#include "test_util.hpp"
#include "util/check.hpp"

namespace hh {
namespace {

class HhCpuTest : public testing::Test {
 protected:
  HhCpuTest() : pool_(2) {}
  HeteroPlatform plat_;
  ThreadPool pool_;

  void expect_correct(const CsrMatrix& a, const CsrMatrix& b,
                      const HhCpuOptions& opt = {}) {
    const RunResult res = run_hh_cpu(a, b, opt, plat_, pool_);
    const CsrMatrix want = gustavson_spgemm(a, b);
    std::string why;
    EXPECT_TRUE(approx_equal(want, res.c, 1e-9, &why)) << why;
    EXPECT_EQ(res.report.output_nnz, res.c.nnz());
  }
};

TEST_F(HhCpuTest, CorrectOnRandomSquare) {
  const CsrMatrix a = test::random_csr(80, 80, 0.08, 201);
  expect_correct(a, a);
}

TEST_F(HhCpuTest, CorrectOnRectangularChain) {
  const CsrMatrix a = test::random_csr(60, 40, 0.1, 202);
  const CsrMatrix b = test::random_csr(40, 70, 0.1, 203);
  expect_correct(a, b);
}

TEST_F(HhCpuTest, CorrectOnScaleFreeSelfProduct) {
  PowerLawGenConfig cfg;
  cfg.rows = 1500;
  cfg.alpha = 2.3;
  cfg.target_nnz = 7000;
  cfg.seed = 204;
  const CsrMatrix a = generate_power_law_matrix(cfg);
  expect_correct(a, a);
}

TEST_F(HhCpuTest, CorrectOnTwoDifferentScaleFreeMatrices) {
  PowerLawGenConfig cfg;
  cfg.rows = 800;
  cfg.alpha = 3.0;
  cfg.target_nnz = 4000;
  cfg.seed = 205;
  const CsrMatrix a = generate_power_law_matrix(cfg);
  cfg.seed = 206;
  const CsrMatrix b = generate_power_law_matrix(cfg);
  expect_correct(a, b);
}

TEST_F(HhCpuTest, CorrectWithExplicitThresholds) {
  const CsrMatrix a = test::random_csr(100, 100, 0.1, 207);
  for (const offset_t t : {offset_t{1}, offset_t{5}, offset_t{10000}}) {
    HhCpuOptions opt;
    opt.threshold_a = t;
    opt.threshold_b = t;
    expect_correct(a, a, opt);
  }
}

TEST_F(HhCpuTest, IdentityAndEmpty) {
  expect_correct(csr_identity(30), csr_identity(30));
  const CsrMatrix empty(20, 20);
  const RunResult res = run_hh_cpu(empty, empty, {}, plat_, pool_);
  EXPECT_EQ(res.c.nnz(), 0);
}

TEST_F(HhCpuTest, MatrixWithEmptyRows) {
  CsrMatrix a = test::random_csr(50, 50, 0.1, 208);
  // Blank out a band of rows.
  const CsrMatrix b =
      mask_entries(a, [](index_t r, index_t) { return r < 10 || r >= 20; });
  expect_correct(b, b);
}

TEST_F(HhCpuTest, ReportPhasesAreConsistent) {
  const CsrMatrix a = make_dataset(dataset_spec("wiki-Vote"), 0.08);
  const RunResult res = run_hh_cpu(a, a, {}, plat_, pool_);
  const RunReport& r = res.report;
  EXPECT_EQ(r.algorithm, "HH-CPU");
  EXPECT_GT(r.total_s, 0);
  EXPECT_GE(r.phase1_s, 0);
  EXPECT_GE(r.phase2_s, std::max(r.phase2_cpu_s, r.phase2_gpu_s) - 1e-15);
  EXPECT_GE(r.phase3_s, std::max(r.phase3_cpu_s, r.phase3_gpu_s) - 1e-15);
  EXPECT_GT(r.threshold_a, 0);
  EXPECT_GT(r.flops, 0);
  // Totals cover at least the critical path pieces.
  EXPECT_GE(r.total_s, r.phase1_s + r.phase4_s);
  EXPECT_EQ(r.merge.tuples_out, r.output_nnz);
}

TEST_F(HhCpuTest, ThresholdZeroMeansAutoPick) {
  const CsrMatrix a = make_dataset(dataset_spec("wiki-Vote"), 0.08);
  HhCpuOptions opt;  // thresholds 0
  const RunResult res = run_hh_cpu(a, a, opt, plat_, pool_);
  EXPECT_GT(res.report.threshold_a, 0);
  EXPECT_GT(res.report.threshold_b, 0);
}

TEST_F(HhCpuTest, DegeneratePartitionSkipsPhase3) {
  const CsrMatrix a = test::random_csr(60, 60, 0.1, 209);
  HhCpuOptions opt;
  opt.threshold_a = 100000;  // everything low
  opt.threshold_b = 100000;
  const RunResult res = run_hh_cpu(a, a, opt, plat_, pool_);
  EXPECT_EQ(res.report.queue_cpu_units + res.report.queue_gpu_units, 0);
  EXPECT_DOUBLE_EQ(res.report.phase2_cpu_s, 0.0);
  const CsrMatrix want = gustavson_spgemm(a, a);
  std::string why;
  EXPECT_TRUE(approx_equal(want, res.c, 1e-9, &why)) << why;
}

TEST_F(HhCpuTest, SelfProductTransfersInputOnce) {
  const CsrMatrix a = test::random_csr(80, 80, 0.1, 210);
  const CsrMatrix b = a;  // distinct object, same content
  const RunResult self = run_hh_cpu(a, a, {}, plat_, pool_);
  const RunResult pair = run_hh_cpu(a, b, {}, plat_, pool_);
  EXPECT_LT(self.report.transfer_in_s, pair.report.transfer_in_s);
}

TEST_F(HhCpuTest, AlreadyOnGpuSkipsTransfer) {
  const CsrMatrix a = test::random_csr(80, 80, 0.1, 211);
  HhCpuOptions opt;
  opt.matrices_already_on_gpu = true;
  const RunResult res = run_hh_cpu(a, a, opt, plat_, pool_);
  EXPECT_DOUBLE_EQ(res.report.transfer_in_s, 0.0);
}

TEST_F(HhCpuTest, DeterministicOutput) {
  const CsrMatrix a = make_dataset(dataset_spec("ca-CondMat"), 0.05);
  const RunResult x = run_hh_cpu(a, a, {}, plat_, pool_);
  const RunResult y = run_hh_cpu(a, a, {}, plat_, pool_);
  EXPECT_EQ(x.c.indices, y.c.indices);
  EXPECT_EQ(x.c.values, y.c.values);
  EXPECT_DOUBLE_EQ(x.report.total_s, y.report.total_s);
}

TEST_F(HhCpuTest, IncompatibleShapesThrow) {
  const CsrMatrix a(3, 4), b(5, 3);
  EXPECT_THROW(run_hh_cpu(a, b, {}, plat_, pool_), CheckError);
  EXPECT_THROW(cost_hh_cpu(a, b, {}, plat_, pool_), CheckError);
}

// The bits run_hh_cpu must produce, from a serial reference: the four
// products' tuples in Phase order (A_H×B_H, A_L×B_L, then the queue's
// A_L×B_H and A_H×B_L entries), each row's columns ascending from a per-row
// SPA, merged by test::stable_sort_reference (a stable (r, c) sort with sums
// from zero in input order).
CsrMatrix serial_hh_cpu_reference(const CsrMatrix& a, const CsrMatrix& b,
                                  const PartitionPlan& plan) {
  std::vector<test::Tuple> tuples;
  std::vector<value_t> acc(static_cast<std::size_t>(b.cols));
  std::vector<std::uint8_t> hit(static_cast<std::size_t>(b.cols), 0);
  std::vector<index_t> cols;
  const auto product = [&](const std::vector<index_t>& rows, bool b_high) {
    for (const index_t i : rows) {
      cols.clear();
      for (offset_t k = a.indptr[i]; k < a.indptr[i + 1]; ++k) {
        const index_t j = a.indices[k];
        if ((plan.b.is_high[static_cast<std::size_t>(j)] != 0) != b_high) {
          continue;
        }
        for (offset_t l = b.indptr[j]; l < b.indptr[j + 1]; ++l) {
          const index_t c = b.indices[l];
          if (hit[c] == 0) {
            hit[c] = 1;
            acc[c] = value_t{0};
            cols.push_back(c);
          }
          acc[c] += a.values[k] * b.values[l];
        }
      }
      std::sort(cols.begin(), cols.end());
      for (const index_t c : cols) {
        tuples.push_back({i, c, acc[c]});
        hit[c] = 0;
      }
    }
  };
  product(plan.a.high_rows, true);
  product(plan.a.low_rows, false);
  product(plan.a.low_rows, true);
  product(plan.a.high_rows, false);
  return test::stable_sort_reference(a.rows, b.cols, tuples);
}

// run_hh_cpu composed from the staged calls (run_phase2, run_phase3 and
// run_phase4, core/hh_stages.hpp) the way the benchmark's traced one-shot
// run composes them, which needs C bit-identical to run_hh_cpu's and an
// equal report.
RunResult staged_hh_cpu(const CsrMatrix& a, const CsrMatrix& b,
                        const HhCpuOptions& options,
                        const HeteroPlatform& platform, ThreadPool& pool) {
  RunResult res;
  RunReport& rep = res.report;
  rep.algorithm = "HH-CPU";
  const PartitionPlan plan = make_partition_plan(
      a, b, options.threshold_a, options.threshold_b, platform);
  rep.phase1_s = plan.phase1_s;
  rep.threshold_a = plan.a.threshold;
  rep.threshold_b = plan.b.threshold;
  rep.high_rows_a = plan.a.high_count();
  rep.high_rows_b = plan.b.high_count();
  const double transfer_in =
      options.matrices_already_on_gpu
          ? 0.0
          : platform.link().h2d().operands_transfer_time(a, b);
  rep.transfer_in_s = transfer_in;

  Phase2Result p2 = run_phase2(a, b, plan, platform, pool, options.workspace);
  rep.phase2_cpu_s = p2.cpu_s;
  rep.phase2_gpu_s = p2.gpu_s;
  rep.phase2_s = HeteroPlatform::overlap(p2.cpu_s, p2.gpu_s);

  const double cpu_at_queue = rep.phase1_s + p2.cpu_s;
  const double gpu_at_queue = rep.phase1_s + transfer_in + p2.gpu_s;
  WorkQueueResult queue =
      run_phase3(a, b, plan, options.queue, cpu_at_queue, gpu_at_queue,
                 platform, pool, options.workspace);
  rep.phase3_cpu_s = queue.cpu_busy;
  rep.phase3_gpu_s = queue.gpu_busy;
  rep.phase3_s = HeteroPlatform::overlap(queue.cpu_busy, queue.gpu_busy);
  rep.queue_cpu_units = queue.cpu_units;
  rep.queue_gpu_units = queue.gpu_units;

  const std::int64_t gpu_tuples = p2.ll_stats.tuples + queue.gpu_stats.tuples;
  rep.transfer_out_s = platform.link().d2h().tuple_transfer_time(gpu_tuples);
  rep.flops = p2.hh_stats.flops + p2.ll_stats.flops + queue.cpu_stats.flops +
              queue.gpu_stats.flops;
  const double queue_end = queue.end_time();

  MergeResult merged = run_phase4(std::move(p2), std::move(queue), platform,
                                  pool, options.workspace);
  res.c = std::move(merged.c);
  rep.merge = merged.merge;
  rep.phase4_s = merged.cpu_s;
  rep.output_nnz = res.c.nnz();
  rep.total_s = queue_end + rep.transfer_out_s + rep.phase4_s;
  return res;
}

// run_hh_cpu's C against the serial reference under memcmp, with pools of
// 1 and 4, at the analytic pick, at both ends of threshold_grid (the last
// point empties both H sides), at any `extra` thresholds, and at one pair
// with threshold_a != threshold_b. At each point the same run with
// options.workspace set, and the staged calls composed as staged_hh_cpu
// does (bits and report), must match too.
void expect_reference_bits(const CsrMatrix& a, const CsrMatrix& b,
                           const HeteroPlatform& plat, const std::string& what,
                           std::vector<offset_t> extra = {}) {
  const std::vector<offset_t> grid = threshold_grid(a, b);
  extra.insert(extra.end(), {0, grid.front(), grid.back()});
  std::vector<std::pair<offset_t, offset_t>> points;
  for (const offset_t t : extra) points.emplace_back(t, t);
  points.emplace_back(grid.front(), grid.back() + 1);
  ThreadPool pool1(1), pool4(4);
  WorkspacePool spas;
  for (const auto& [t_a, t_b] : points) {
    const PartitionPlan plan = make_partition_plan(a, b, t_a, t_b, plat);
    const CsrMatrix want = serial_hh_cpu_reference(a, b, plan);
    HhCpuOptions opt;
    opt.threshold_a = t_a;
    opt.threshold_b = t_b;
    HhCpuOptions pooled = opt;
    pooled.workspace = &spas;
    for (ThreadPool* pool : {&pool1, &pool4}) {
      const std::string at = what + " t=(" + std::to_string(t_a) + "," +
                             std::to_string(t_b) + ") pool " +
                             std::to_string(pool->size());
      const RunResult run = run_hh_cpu(a, b, opt, plat, *pool);
      test::expect_same_bits(want, run.c, at);
      test::expect_same_bits(want, run_hh_cpu(a, b, pooled, plat, *pool).c,
                             at + " pooled");
      const RunResult staged = staged_hh_cpu(a, b, pooled, plat, *pool);
      test::expect_same_bits(want, staged.c, at + " staged");
      EXPECT_EQ(staged.report.to_json(), run.report.to_json())
          << at << " staged";
    }
  }
}

TEST_F(HhCpuTest, BitIdenticalToSerialReferenceOnTableOneAnalogues) {
  for (const char* name : {"wiki-Vote", "ca-CondMat", "email-Enron"}) {
    const CsrMatrix a = make_dataset(dataset_spec(name), 0.04);
    expect_reference_bits(a, a, plat_, name);
  }
}

TEST_F(HhCpuTest, BitIdenticalToSerialReferenceOnRectangularPair) {
  PowerLawGenConfig cfg;
  cfg.rows = 600;
  cfg.alpha = 2.3;
  cfg.target_nnz = 3600;
  cfg.seed = 231;
  const CsrMatrix a = generate_power_law_matrix(cfg);
  const CsrMatrix b = test::random_csr(600, 450, 0.01, 232);
  ASSERT_NE(a.cols, b.cols);
  expect_reference_bits(a, b, plat_, "rectangular pair");
}

TEST_F(HhCpuTest, BitIdenticalToSerialReferenceOnCancellationAndNegativeZero) {
  // B row 0 (length 4) and rows 1-2 (lengths 1-2) sit on opposite B sides
  // at t = 2 and 3, so C(0, 0) = 0.5 - 0.5 and C(0, 1) = 3 - 3 cancel
  // exactly across the Phase II and Phase III tuples. C(1, 2) is the lone
  // product -1 × 0.0 = -0.0, and C(2, 2) sums +0.0 and -0.0 from opposite
  // B sides.
  const CsrMatrix a = csr_from_triplets(
      3, 4, std::vector<index_t>{0, 0, 0, 1, 2, 2},
      std::vector<index_t>{0, 1, 2, 3, 0, 3},
      std::vector<value_t>{1.0, 1.0, 1.0, -1.0, 0.0, -1.0});
  const CsrMatrix b = csr_from_triplets(
      4, 5, std::vector<index_t>{0, 0, 0, 0, 1, 2, 2, 3},
      std::vector<index_t>{0, 1, 2, 3, 0, 1, 4, 2},
      std::vector<value_t>{0.5, 3.0, 1.0, 1.0, -0.5, -3.0, 1.0, 0.0});
  expect_reference_bits(a, b, plat_, "cancellation", {1, 2, 3, 5});
}

// Unsorted and repeated columns are well-formed: C sums the repeats, holds
// ascending rows, and keeps every bit contract above.
TEST_F(HhCpuTest, UnsortedAndDuplicateColumnsAreSummed) {
  const CsrMatrix a = test::unsorted_with_duplicates(90, 70, 0.08, 233);
  const CsrMatrix b = test::unsorted_with_duplicates(70, 80, 0.08, 234);
  test::expect_sorted_reference(a, b, run_hh_cpu(a, b, {}, plat_, pool_).c,
                                "run_hh_cpu");
  expect_reference_bits(a, b, plat_, "unsorted");
  EXPECT_EQ(cost_hh_cpu(a, b, {}, plat_, pool_).to_json(),
            run_hh_cpu(a, b, {}, plat_, pool_).report.to_json());
}

// Malformed operands on either side throw CheckError before any kernel
// reads an index.
class MalformedOperandTest
    : public HhCpuTest,
      public testing::WithParamInterface<test::Malformation> {
 protected:
  const CsrMatrix bad_ = test::malformed_4x4(GetParam());
  const CsrMatrix good_ = test::well_formed_4x4();
};

TEST_P(MalformedOperandTest, RunHhCpuThrowsCheckError) {
  EXPECT_THROW(run_hh_cpu(bad_, good_, {}, plat_, pool_), CheckError);
  EXPECT_THROW(run_hh_cpu(good_, bad_, {}, plat_, pool_), CheckError);
  EXPECT_THROW(run_hh_cpu(bad_, bad_, {}, plat_, pool_), CheckError);
}

TEST_P(MalformedOperandTest, CostHhCpuThrowsCheckError) {
  EXPECT_THROW(cost_hh_cpu(bad_, good_, {}, plat_, pool_), CheckError);
  EXPECT_THROW(cost_hh_cpu(good_, bad_, {}, plat_, pool_), CheckError);
}

TEST_P(MalformedOperandTest, CostHhCpuGridThrowsCheckError) {
  const offset_t grid[] = {1, 2};
  EXPECT_THROW(cost_hh_cpu_grid(bad_, good_, grid, {}, plat_, pool_),
               CheckError);
  EXPECT_THROW(cost_hh_cpu_grid(good_, bad_, grid, {}, plat_, pool_),
               CheckError);
}

INSTANTIATE_TEST_SUITE_P(Malformations, MalformedOperandTest,
                         testing::ValuesIn(test::kAllMalformations),
                         test::MalformationParamName());

// cost_hh_cpu's contract: the full run's report, field for field, with
// every double equal bit for bit (EXPECT_EQ, not EXPECT_DOUBLE_EQ).
class CostHhCpuTest : public HhCpuTest {
 protected:
  void expect_exact(const CsrMatrix& a, const CsrMatrix& b,
                    const HhCpuOptions& opt, const HeteroPlatform& plat,
                    const std::string& what) {
    const RunReport want = run_hh_cpu(a, b, opt, plat, pool_).report;
    const RunReport got = cost_hh_cpu(a, b, opt, plat, pool_);
    expect_same_report(got, want, at(what, opt));
  }

  static std::string at(const std::string& what, const HhCpuOptions& opt) {
    return what + " t=(" + std::to_string(opt.threshold_a) + "," +
           std::to_string(opt.threshold_b) + ")";
  }

  static void expect_same_report(const RunReport& got, const RunReport& want,
                                 const std::string& at) {
    EXPECT_EQ(got.algorithm, want.algorithm) << at;
    EXPECT_EQ(got.total_s, want.total_s) << at;
    EXPECT_EQ(got.phase1_s, want.phase1_s) << at;
    EXPECT_EQ(got.phase2_s, want.phase2_s) << at;
    EXPECT_EQ(got.phase3_s, want.phase3_s) << at;
    EXPECT_EQ(got.phase4_s, want.phase4_s) << at;
    EXPECT_EQ(got.transfer_in_s, want.transfer_in_s) << at;
    EXPECT_EQ(got.transfer_out_s, want.transfer_out_s) << at;
    EXPECT_EQ(got.phase2_cpu_s, want.phase2_cpu_s) << at;
    EXPECT_EQ(got.phase2_gpu_s, want.phase2_gpu_s) << at;
    EXPECT_EQ(got.phase3_cpu_s, want.phase3_cpu_s) << at;
    EXPECT_EQ(got.phase3_gpu_s, want.phase3_gpu_s) << at;
    EXPECT_EQ(got.threshold_a, want.threshold_a) << at;
    EXPECT_EQ(got.threshold_b, want.threshold_b) << at;
    EXPECT_EQ(got.high_rows_a, want.high_rows_a) << at;
    EXPECT_EQ(got.high_rows_b, want.high_rows_b) << at;
    EXPECT_EQ(got.flops, want.flops) << at;
    EXPECT_EQ(got.output_nnz, want.output_nnz) << at;
    EXPECT_EQ(got.merge.tuples_in, want.merge.tuples_in) << at;
    EXPECT_EQ(got.merge.tuples_out, want.merge.tuples_out) << at;
    EXPECT_EQ(got.queue_cpu_units, want.queue_cpu_units) << at;
    EXPECT_EQ(got.queue_gpu_units, want.queue_gpu_units) << at;
    EXPECT_EQ(got.to_json(), want.to_json()) << at;
  }

  // cost_hh_cpu_grid against run_hh_cpu at every point of `grid`, both
  // thresholds at the point.
  void expect_grid_exact(const CsrMatrix& a, const CsrMatrix& b,
                         std::span<const offset_t> grid,
                         const HeteroPlatform& plat, const std::string& what,
                         HhCpuOptions opt = {}) {
    const std::vector<RunReport> got =
        cost_hh_cpu_grid(a, b, grid, opt, plat, pool_);
    ASSERT_EQ(got.size(), grid.size()) << what;
    for (std::size_t g = 0; g < grid.size(); ++g) {
      opt.threshold_a = grid[g];
      opt.threshold_b = grid[g];
      const RunReport want = run_hh_cpu(a, b, opt, plat, pool_).report;
      expect_same_report(got[g], want, at(what + " grid", opt));
    }
  }

  // expect_exact at t = 0 (the analytic pick), and at every grid point
  // both cost_hh_cpu and the matching cost_hh_cpu_grid entry.
  void expect_exact_on_grid(const CsrMatrix& a, const CsrMatrix& b,
                            const HeteroPlatform& plat,
                            const std::string& what,
                            HhCpuOptions opt = {}) {
    opt.threshold_a = 0;
    opt.threshold_b = 0;
    expect_exact(a, b, opt, plat, what);
    const std::vector<offset_t> grid = threshold_grid(a, b);
    const std::vector<RunReport> swept =
        cost_hh_cpu_grid(a, b, grid, opt, plat, pool_);
    ASSERT_EQ(swept.size(), grid.size()) << what;
    for (std::size_t g = 0; g < grid.size(); ++g) {
      opt.threshold_a = grid[g];
      opt.threshold_b = grid[g];
      const RunReport want = run_hh_cpu(a, b, opt, plat, pool_).report;
      expect_same_report(cost_hh_cpu(a, b, opt, plat, pool_), want,
                         at(what, opt));
      expect_same_report(swept[g], want, at(what + " grid", opt));
    }
  }
};

TEST_F(CostHhCpuTest, ExactOnTableOneAnaloguesAtEveryGridPoint) {
  // A scaled platform shrinks the shared-accumulator cap, so rows land on
  // both sides of the shared/global flops split.
  constexpr double kScale = 0.04;
  const HeteroPlatform plat = make_scaled_platform(kScale);
  for (const char* name : {"wiki-Vote", "ca-CondMat", "email-Enron"}) {
    const CsrMatrix a = make_dataset(dataset_spec(name), kScale);
    expect_exact_on_grid(a, a, plat, name);
  }
  set_shared_accum_cap(kSharedAccumCap);
}

TEST_F(CostHhCpuTest, ExactOnRectangularPair) {
  // A != B: both inputs are transferred and both grids are swept.
  PowerLawGenConfig cfg;
  cfg.rows = 700;
  cfg.alpha = 2.3;
  cfg.target_nnz = 4200;
  cfg.seed = 221;
  const CsrMatrix a = generate_power_law_matrix(cfg);
  cfg.seed = 222;
  const CsrMatrix b = generate_power_law_matrix(cfg);
  expect_exact_on_grid(a, b, plat_, "power-law pair");
  const CsrMatrix c = test::random_csr(60, 40, 0.1, 223);
  const CsrMatrix d = test::random_csr(40, 70, 0.1, 224);
  expect_exact_on_grid(c, d, plat_, "rectangular chain");
}

TEST_F(CostHhCpuTest, ExactWhenPartitionSidesAreEmpty) {
  // t = 1 empties A_L and B_L (no row of `a` is empty); a huge t empties
  // A_H and B_H. Mixed per-matrix thresholds skip one product at a time.
  const CsrMatrix a = make_dataset(dataset_spec("wiki-Vote"), 0.04);
  const CsrMatrix full = test::random_csr(50, 50, 0.3, 225);
  for (index_t i = 0; i < full.rows; ++i) ASSERT_GT(full.row_nnz(i), 0);
  for (const offset_t ta : {offset_t{1}, offset_t{8}, offset_t{1000000}}) {
    for (const offset_t tb : {offset_t{1}, offset_t{8}, offset_t{1000000}}) {
      HhCpuOptions opt;
      opt.threshold_a = ta;
      opt.threshold_b = tb;
      expect_exact(a, a, opt, plat_, "wiki-Vote");
      expect_exact(full, full, opt, plat_, "no empty rows");
    }
  }
}

TEST_F(CostHhCpuTest, ExactAcrossQueueUnitSizes) {
  const CsrMatrix a = make_dataset(dataset_spec("ca-CondMat"), 0.04);
  HhCpuOptions opt;
  opt.queue.cpu_rows = 1;
  opt.queue.gpu_rows = 1;
  expect_exact_on_grid(a, a, plat_, "1-row units", opt);
  opt.queue.cpu_rows = 10 * a.rows;  // one unit swallows the whole queue
  opt.queue.gpu_rows = 10 * a.rows;
  expect_exact_on_grid(a, a, plat_, "oversized units", opt);
}

TEST_F(CostHhCpuTest, ExactWhenMatricesAlreadyOnGpu) {
  const CsrMatrix a = make_dataset(dataset_spec("wiki-Vote"), 0.04);
  HhCpuOptions opt;
  opt.matrices_already_on_gpu = true;
  expect_exact_on_grid(a, a, plat_, "resident", opt);
}

TEST_F(CostHhCpuTest, ExactOnDegenerateMatrices) {
  const CsrMatrix zero(30, 30);
  expect_exact_on_grid(zero, zero, plat_, "all-zero");
  // Every row has the same length, so any t puts all rows on one side.
  const CsrMatrix ring = csr_from_triplets(
      4, 4, std::vector<index_t>{0, 0, 1, 1, 2, 2, 3, 3},
      std::vector<index_t>{0, 1, 1, 2, 2, 3, 3, 0},
      std::vector<value_t>{1, 2, 3, 4, 5, 6, 7, 8});
  expect_exact_on_grid(ring, ring, plat_, "equal rows");
  expect_exact_on_grid(csr_identity(30), csr_identity(30), plat_, "identity");
}

TEST_F(CostHhCpuTest, GridExactOnManyRowBlocks) {
  // More rows than one block of the symbolic pass holds, so its changes
  // are replayed across several blocks.
  PowerLawGenConfig cfg;
  cfg.rows = 3000;
  cfg.alpha = 2.2;
  cfg.target_nnz = 15000;
  cfg.seed = 226;
  const CsrMatrix a = generate_power_law_matrix(cfg);
  expect_grid_exact(a, a, threshold_grid(a, a), plat_, "3000 rows");
}

TEST_F(CostHhCpuTest, GridExactOnFig10ShapedGrid) {
  // Fig. 10 sweeps a 6-point grid of A's candidates only, with A != B.
  PowerLawGenConfig cfg;
  cfg.rows = 900;
  cfg.alpha = 3.5;
  cfg.target_nnz = 5400;
  cfg.kmin = 3;
  cfg.seed = 227;
  const CsrMatrix a = generate_power_law_matrix(cfg);
  cfg.seed = 228;
  const CsrMatrix b = generate_power_law_matrix(cfg);
  const std::vector<offset_t> grid = threshold_candidates(a, 6);
  ASSERT_LE(grid.size(), 6u);
  expect_grid_exact(a, b, grid, plat_, "fig10 grid");
}

TEST_F(CostHhCpuTest, GridReportsDoNotDependOnPoolSize) {
  PowerLawGenConfig cfg;
  cfg.rows = 5000;
  cfg.alpha = 2.1;
  cfg.target_nnz = 30000;
  cfg.seed = 229;
  const CsrMatrix a = generate_power_law_matrix(cfg);
  const std::vector<offset_t> grid = threshold_grid(a, a);
  ThreadPool pool1(1), pool4(4);
  const std::vector<RunReport> one =
      cost_hh_cpu_grid(a, a, grid, {}, plat_, pool1);
  const std::vector<RunReport> four =
      cost_hh_cpu_grid(a, a, grid, {}, plat_, pool4);
  ASSERT_EQ(one.size(), grid.size());
  ASSERT_EQ(four.size(), grid.size());
  for (std::size_t g = 0; g < grid.size(); ++g) {
    EXPECT_EQ(one[g].to_json(), four[g].to_json()) << "t=" << grid[g];
  }
}

TEST_F(CostHhCpuTest, MalformedGridsThrow) {
  const CsrMatrix a = test::random_csr(40, 40, 0.1, 230);
  const auto cost = [&](std::vector<offset_t> grid) {
    return cost_hh_cpu_grid(a, a, grid, {}, plat_, pool_);
  };
  EXPECT_THROW(cost({}), CheckError);
  EXPECT_THROW(cost({4, 4}), CheckError);
  EXPECT_THROW(cost({5, 3}), CheckError);
  EXPECT_THROW(cost({0, 3}), CheckError);
  EXPECT_THROW(cost({-2}), CheckError);
  std::vector<offset_t> too_many(kMaxGridPoints + 1);
  for (std::size_t g = 0; g < too_many.size(); ++g) {
    too_many[g] = static_cast<offset_t>(g) + 1;
  }
  EXPECT_THROW(cost(too_many), CheckError);
  too_many.pop_back();
  EXPECT_EQ(cost(too_many).size(), kMaxGridPoints);
  const CsrMatrix b(3, 4), c(5, 3);
  const offset_t grid[] = {2};
  EXPECT_THROW(cost_hh_cpu_grid(b, c, grid, {}, plat_, pool_), CheckError);
}

}  // namespace
}  // namespace hh
