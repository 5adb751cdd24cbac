#include "sched/static_partition.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "gen/powerlaw_gen.hpp"
#include "spgemm/spgemm.hpp"
#include "test_util.hpp"

namespace hh {
namespace {

TEST(StaticPartition, SplitWithinRange) {
  const CsrMatrix a = test::random_csr(100, 100, 0.1, 91);
  HeteroPlatform plat;
  const StaticSplit s = balance_static_split(a, a, plat);
  EXPECT_GE(s.split_row, 0);
  EXPECT_LE(s.split_row, a.rows);
}

TEST(StaticPartition, BalancesEstimatedTimes) {
  PowerLawGenConfig cfg;
  cfg.rows = 2000;
  cfg.alpha = 2.5;
  cfg.target_nnz = 10000;
  cfg.seed = 17;
  const CsrMatrix a = generate_power_law_matrix(cfg);
  HeteroPlatform plat;
  const StaticSplit s = balance_static_split(a, a, plat);
  // Both devices get meaningful work and the estimated times are within a
  // small factor of one another (the split is an argmin over max).
  EXPECT_GT(s.split_row, 0);
  EXPECT_LT(s.split_row, a.rows);
  EXPECT_LT(std::max(s.est_cpu_time, s.est_gpu_time),
            2.5 * std::min(s.est_cpu_time, s.est_gpu_time));
}

TEST(StaticPartition, SplitCostNoWorseThanAllOnOneDevice) {
  const CsrMatrix a = test::random_csr(200, 200, 0.08, 92);
  HeteroPlatform plat;
  const StaticSplit s = balance_static_split(a, a, plat);
  const double best = std::max(s.est_cpu_time, s.est_gpu_time);

  // Compare against the two degenerate splits.
  StaticSplit all_cpu, all_gpu;
  {
    // k = rows: everything on CPU.  k = 0: everything on GPU. Recompute via
    // the same estimator by brute force over those two candidates.
    const CsrMatrix& b = a;
    std::vector<index_t> rows(static_cast<std::size_t>(a.rows));
    std::iota(rows.begin(), rows.end(), index_t{0});
    const ProductStats total = estimate_partial_product(a, b, rows, {}, true);
    const double ws = 12.0 * static_cast<double>(b.nnz());
    all_cpu.est_cpu_time = plat.cpu().kernel_time(total, ws, true);
    all_gpu.est_gpu_time = plat.gpu().kernel_time(total);
  }
  EXPECT_LE(best, std::max(all_cpu.est_cpu_time, 0.0) + 1e-12);
  EXPECT_LE(best, std::max(all_gpu.est_gpu_time, 0.0) + 1e-12);
}

// m with `count` empty rows inserted before row `at`.
CsrMatrix with_empty_rows(const CsrMatrix& m, index_t at, index_t count) {
  CsrMatrix out(m.rows + count, m.cols);
  out.indices = m.indices;
  out.values = m.values;
  for (index_t r = 0; r <= m.rows; ++r) {
    out.indptr[r < at ? r : r + count] = m.indptr[r];
  }
  for (index_t r = at; r < at + count; ++r) out.indptr[r] = m.indptr[at];
  return out;
}

// The split equals a brute-force argmin that estimates every prefix and
// suffix directly: the same (first) minimizing row and, under ==, the same
// estimated times. The inputs cover rows past the shared-accumulator cap
// (flops_global), an all-CPU split, a power-law matrix and a rectangular
// product. The last input puts three empty rows at the power-law matrix's
// split, where the GPU side is the longer one: moving an empty row to the
// CPU leaves the cost unchanged, so four split rows tie.
TEST(StaticPartition, MatchesBruteForceArgmin) {
  PowerLawGenConfig cfg;
  cfg.rows = 400;
  cfg.alpha = 2.2;
  cfg.target_nnz = 2000;
  cfg.seed = 23;
  const CsrMatrix dense = test::random_csr(60, 60, 0.5, 94);
  const CsrMatrix sparse = test::random_csr(80, 80, 0.03, 95);
  const CsrMatrix power = generate_power_law_matrix(cfg);
  const CsrMatrix tall = test::random_csr(50, 30, 0.15, 96);
  const CsrMatrix wide = test::random_csr(30, 70, 0.15, 97);
  const CsrMatrix gap = with_empty_rows(power, 138, 3);
  struct Case {
    const CsrMatrix* a;
    const CsrMatrix* b;
    int ties;  // split rows at the minimum cost
  };
  const Case cases[] = {{&dense, &dense, 1}, {&sparse, &sparse, 1},
                        {&power, &power, 1}, {&tall, &wide, 1},
                        {&gap, &power, 4}};
  const HeteroPlatform plat;
  for (const auto& [a, b, ties] : cases) {
    const std::string at =
        std::to_string(a->rows) + "x" + std::to_string(b->cols);
    std::vector<index_t> all(static_cast<std::size_t>(a->rows));
    std::iota(all.begin(), all.end(), index_t{0});
    const double ws = 12.0 * static_cast<double>(b->nnz());
    StaticSplit want;
    double best = -1;
    int at_best = 0;
    for (index_t k = 0; k <= a->rows; ++k) {
      const std::span<const index_t> cpu_rows(all.data(),
                                              static_cast<std::size_t>(k));
      const std::span<const index_t> gpu_rows(
          all.data() + k, static_cast<std::size_t>(a->rows - k));
      const double cpu = plat.cpu().kernel_time(
          estimate_partial_product(*a, *b, cpu_rows, {}, true), ws, true);
      const double gpu = plat.gpu().kernel_time(
          estimate_partial_product(*a, *b, gpu_rows, {}, true));
      const double cost = std::max(cpu, gpu);
      if (best < 0 || cost < best) {
        best = cost;
        want = {k, cpu, gpu};
        at_best = 1;
      } else if (cost == best) {
        ++at_best;
      }
    }
    EXPECT_EQ(at_best, ties) << at;
    const StaticSplit got = balance_static_split(*a, *b, plat);
    EXPECT_EQ(got.split_row, want.split_row) << at;
    EXPECT_EQ(got.est_cpu_time, want.est_cpu_time) << at;
    EXPECT_EQ(got.est_gpu_time, want.est_gpu_time) << at;
  }
}

TEST(StaticPartition, EmptyMatrix) {
  const CsrMatrix a(10, 10);
  HeteroPlatform plat;
  const StaticSplit s = balance_static_split(a, a, plat);
  EXPECT_GE(s.split_row, 0);
  EXPECT_LE(s.split_row, 10);
}

}  // namespace
}  // namespace hh
