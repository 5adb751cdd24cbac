#include "sched/workqueue.hpp"

#include <gtest/gtest.h>

#include <array>
#include <numeric>

#include "core/baselines.hpp"
#include "sparse/convert.hpp"
#include "sparse/partition.hpp"
#include "spgemm/gustavson.hpp"
#include "test_util.hpp"
#include "util/check.hpp"

namespace hh {
namespace {

std::vector<index_t> all_rows(const CsrMatrix& m) {
  std::vector<index_t> rows(static_cast<std::size_t>(m.rows));
  std::iota(rows.begin(), rows.end(), index_t{0});
  return rows;
}

// The HH-CPU queue at t: A_L×B_H at the CPU end, A_H×B_L at the GPU end.
std::array<QueuePart, 2> two_part_queue(const RowPartition& p) {
  return {QueuePart{{p.low_rows, p.is_high, true}, 100.0, true},
          QueuePart{{p.high_rows, p.is_high, false}, 1e9, false}};
}

// The queue as the workqueue baselines and the staged Phase III run it: the
// parts' product stored first, by Gustavson over the copy of `a` that keeps
// each listed row's entries on its part's side of B, then schedule_workqueue
// over that store's product_row_stats. The store goes to `tuples`.
WorkQueueResult run_queue(const CsrMatrix& a, std::span<const QueuePart> parts,
                          const WorkQueueConfig& cfg, double cpu_start,
                          double gpu_start, const HeteroPlatform& plat,
                          ThreadPool& pool) {
  std::vector<const QueuePart*> part_of(static_cast<std::size_t>(a.rows));
  for (const QueuePart& part : parts) {
    for (const index_t i : part.product.rows) part_of[i] = &part;
  }
  const CsrMatrix masked = mask_entries(a, [&](index_t i, index_t j) {
    const QueuePart* part = part_of[i];
    return part != nullptr &&
           (part->product.b_mask.empty() ||
            (part->product.b_mask[j] != 0) == part->product.b_mask_value);
  });
  CsrMatrix store = gustavson_spgemm_parallel(masked, a, pool);
  const std::vector<ProductStats> table = product_row_stats(masked, a, store);
  const std::vector<std::span<const ProductStats>> tables(parts.size(), table);
  WorkQueueResult r = schedule_workqueue(parts, tables, cfg, a.rows, cpu_start,
                                         gpu_start, plat);
  r.tuples = std::move(store);
  return r;
}

class WorkQueueTest : public testing::Test {
 protected:
  WorkQueueTest()
      : a_(test::random_csr(200, 200, 0.05, 71)),
        rows_(all_rows(a_)),
        natural_{QueuePart{{rows_, {}, true}, 0.0, false}},
        pool_(2) {}
  WorkQueueResult run(std::span<const QueuePart> parts,
                      const WorkQueueConfig& cfg, double cpu_start,
                      double gpu_start, ThreadPool& pool) {
    return run_queue(a_, parts, cfg, cpu_start, gpu_start, plat_, pool);
  }
  WorkQueueResult run(std::span<const QueuePart> parts,
                      const WorkQueueConfig& cfg, double cpu_start,
                      double gpu_start) {
    return run(parts, cfg, cpu_start, gpu_start, pool_);
  }
  // Gustavson's product of the HH-CPU queue's front part (A_L×B_H, when
  // `front`) or its back part (A_H×B_L), and that product's summed stats
  // over the part's rows.
  CsrMatrix part_store(const RowPartition& p, bool front) {
    return gustavson_spgemm_parallel(part_operand(p, front), a_, pool_);
  }
  ProductStats part_stats(const RowPartition& p, bool front) {
    const std::vector<ProductStats> table =
        test::stored_row_stats(part_operand(p, front), a_, pool_);
    ProductStats s;
    for (const index_t i : front ? p.low_rows : p.high_rows) {
      s.accumulate(table[static_cast<std::size_t>(i)]);
    }
    return s;
  }
  CsrMatrix part_operand(const RowPartition& p, bool front) {
    return mask_entries(a_, [&](index_t i, index_t j) {
      return p.is_high[i] != front && p.is_high[j] == front;
    });
  }
  CsrMatrix a_;
  std::vector<index_t> rows_;
  QueuePart natural_[1];  // every row of A in natural order, all of B
  HeteroPlatform plat_;
  ThreadPool pool_;
};

TEST_F(WorkQueueTest, ProcessesEveryRowExactlyOnce) {
  WorkQueueConfig cfg;
  cfg.cpu_rows = 16;
  cfg.gpu_rows = 64;
  const WorkQueueResult r = run(natural_, cfg, 0, 0);
  EXPECT_EQ(r.cpu_stats.rows + r.gpu_stats.rows, a_.rows);
  r.tuples.validate(true);
  const CsrMatrix want = gustavson_spgemm(a_, a_);
  std::string why;
  EXPECT_TRUE(approx_equal(want, r.tuples, 1e-9, &why)) << why;
}

TEST_F(WorkQueueTest, BothDevicesParticipate) {
  WorkQueueConfig cfg;
  cfg.cpu_rows = 16;
  cfg.gpu_rows = 16;
  const WorkQueueResult r = run(natural_, cfg, 0, 0);
  EXPECT_GT(r.cpu_units, 0);
  EXPECT_GT(r.gpu_units, 0);
  EXPECT_GT(r.cpu_busy, 0);
  EXPECT_GT(r.gpu_busy, 0);
}

TEST_F(WorkQueueTest, LateDeviceGetsLessWork) {
  WorkQueueConfig cfg;
  cfg.cpu_rows = 16;
  cfg.gpu_rows = 16;
  const WorkQueueResult balanced = run(natural_, cfg, 0, 0);
  const WorkQueueResult gpu_late = run(natural_, cfg, 0, 1.0);
  EXPECT_LT(gpu_late.gpu_units, balanced.gpu_units);
  EXPECT_GT(gpu_late.cpu_units, balanced.cpu_units);
}

TEST_F(WorkQueueTest, VeryLateGpuMeansCpuDoesEverything) {
  WorkQueueConfig cfg;
  cfg.cpu_rows = 50;
  cfg.gpu_rows = 50;
  const WorkQueueResult r = run(natural_, cfg, 0, 1e9);
  EXPECT_EQ(r.gpu_units, 0);
  EXPECT_EQ(r.cpu_stats.rows, a_.rows);
}

TEST_F(WorkQueueTest, DeterministicAcrossPoolSizes) {
  WorkQueueConfig cfg;
  cfg.cpu_rows = 10;
  cfg.gpu_rows = 30;
  ThreadPool pool1(1), pool4(4);
  const WorkQueueResult x = run(natural_, cfg, 0, 0, pool1);
  const WorkQueueResult y = run(natural_, cfg, 0, 0, pool4);
  EXPECT_EQ(x.cpu_units, y.cpu_units);
  EXPECT_DOUBLE_EQ(x.cpu_busy, y.cpu_busy);
  EXPECT_EQ(x.tuples.indptr, y.tuples.indptr);
  EXPECT_EQ(x.tuples.indices, y.tuples.indices);
  EXPECT_EQ(x.tuples.values, y.tuples.values);
}

TEST_F(WorkQueueTest, TwoPartQueueUsesMasks) {
  // Front part ×B_H, back part ×B_L: together they cover the full product
  // restricted to the chosen rows.
  const RowPartition p = classify_rows(a_, 12);
  const auto parts = two_part_queue(p);
  WorkQueueConfig cfg;
  cfg.cpu_rows = 20;
  cfg.gpu_rows = 40;
  const WorkQueueResult r = run(parts, cfg, 0, 0);
  EXPECT_EQ(r.cpu_stats.rows + r.gpu_stats.rows,
            static_cast<std::int64_t>(p.low_rows.size() + p.high_rows.size()));
  const CsrMatrix lh = part_store(p, true);
  const CsrMatrix hl = part_store(p, false);
  const ProductStats front = part_stats(p, true);
  const ProductStats back = part_stats(p, false);
  EXPECT_EQ(r.cpu_stats.flops + r.gpu_stats.flops, front.flops + back.flops);
  EXPECT_EQ(r.tuples.nnz(), lh.nnz() + hl.nnz());
}

TEST_F(WorkQueueTest, ScheduleWithPrecomputedCostsMatchesRun) {
  // The dequeue loop priced in place from per-row symbolic costs, each part
  // reading the table of its own B side, reproduces the stored queue's
  // clocks, units and stats exactly, with no tuples.
  const RowPartition p = classify_rows(a_, 12);
  const auto parts = two_part_queue(p);
  WorkQueueConfig cfg;
  cfg.cpu_rows = 7;
  cfg.gpu_rows = 30;
  const WorkQueueResult stored = run(parts, cfg, 0, 2e-5);
  const offset_t grid[] = {12};
  MaskedRowCosts costs;
  row_costs_on_grid(a_, a_, grid, pool_,
                    [&](std::size_t, const MaskedRowCosts& c) { costs = c; });
  const std::span<const ProductStats> tables[] = {costs.by_mask[true],
                                                  costs.by_mask[false]};
  const WorkQueueResult dry =
      schedule_workqueue(parts, tables, cfg, a_.rows, 0, 2e-5, plat_);
  EXPECT_GT(stored.cpu_units, 0);
  EXPECT_GT(stored.gpu_units, 0);
  EXPECT_EQ(dry.cpu_units, stored.cpu_units);
  EXPECT_EQ(dry.gpu_units, stored.gpu_units);
  EXPECT_EQ(dry.cpu_busy, stored.cpu_busy);
  EXPECT_EQ(dry.gpu_busy, stored.gpu_busy);
  EXPECT_EQ(dry.cpu_end, stored.cpu_end);
  EXPECT_EQ(dry.gpu_end, stored.gpu_end);
  EXPECT_EQ(dry.cpu_stats.tuples + dry.gpu_stats.tuples, stored.tuples.nnz());
  EXPECT_EQ(dry.cpu_stats.flops, stored.cpu_stats.flops);
  EXPECT_EQ(dry.gpu_stats.max_row_flops, stored.gpu_stats.max_row_flops);
  EXPECT_EQ(dry.tuples.nnz(), 0);
}

TEST_F(WorkQueueTest, RunsDoNotDependOnTheSchedule) {
  // A GPU that joins at once takes units from the back; one that joins at
  // 1e9 takes none. Every row's run lands in its row's slot either way, and
  // the queue's stats sum to the same totals.
  const RowPartition p = classify_rows(a_, 12);
  const auto parts = two_part_queue(p);
  WorkQueueConfig cfg;
  cfg.cpu_rows = 7;
  cfg.gpu_rows = 30;
  const WorkQueueResult shared = run(parts, cfg, 0, 0);
  const WorkQueueResult cpu_only = run(parts, cfg, 0, 1e9);
  ASSERT_GT(shared.gpu_units, 0);
  ASSERT_EQ(cpu_only.gpu_units, 0);
  ASSERT_GT(shared.tuples.nnz(), 0);
  EXPECT_EQ(shared.tuples.indptr, cpu_only.tuples.indptr);
  EXPECT_EQ(shared.tuples.indices, cpu_only.tuples.indices);
  EXPECT_EQ(shared.tuples.values, cpu_only.tuples.values);
  // The schedule splits the stats between the devices, and their sums stay.
  ProductStats split = shared.cpu_stats;
  split.accumulate(shared.gpu_stats);
  EXPECT_EQ(test::stat_fields(split), test::stat_fields(cpu_only.cpu_stats));
}

TEST_F(WorkQueueTest, StraddlingUnitIsPricedWithFlopsWeightedShape) {
  // One CPU unit takes both parts whole: its stats are the two products'
  // sum, its working set their flops-weighted mean, and it is blockable
  // when at least half its flops are.
  const RowPartition p = classify_rows(a_, 12);
  const auto parts = two_part_queue(p);
  WorkQueueConfig cfg;
  cfg.cpu_rows = a_.rows;
  const WorkQueueResult r = run(parts, cfg, 0, 1e9);
  ASSERT_EQ(r.cpu_units, 1);
  const ProductStats front = part_stats(p, true);
  const ProductStats back = part_stats(p, false);
  ASSERT_GT(front.flops, 0);
  ASSERT_GT(back.flops, 0);
  ProductStats both = front;
  both.accumulate(back);
  const auto f0 = static_cast<double>(front.flops);
  const auto f1 = static_cast<double>(back.flops);
  const double ws = (f0 * 100.0 + f1 * 1e9) / (f0 + f1);
  EXPECT_EQ(r.cpu_busy,
            plat_.cpu().kernel_time(both, ws, true, f0 >= 0.5 * (f0 + f1)) +
                2e-7);
  EXPECT_EQ(r.cpu_stats.flops, both.flops);
}

TEST_F(WorkQueueTest, EmptyQueueReturnsImmediately) {
  WorkQueueConfig cfg;
  const QueuePart empty[] = {{{{}, {}, true}, 0.0, false}};
  for (const std::span<const QueuePart> parts :
       {std::span<const QueuePart>{}, std::span<const QueuePart>(empty)}) {
    const WorkQueueResult r = run(parts, cfg, 3.0, 5.0);
    EXPECT_EQ(r.cpu_units + r.gpu_units, 0);
    EXPECT_DOUBLE_EQ(r.end_time(), 5.0);
    EXPECT_EQ(r.tuples.nnz(), 0);
  }
}

TEST_F(WorkQueueTest, RejectsOutOfRangeRow) {
  const std::vector<ProductStats> table(static_cast<std::size_t>(a_.rows));
  const std::span<const ProductStats> tables[] = {table};
  WorkQueueConfig cfg;
  for (const index_t bad : {a_.rows, index_t{-1}}) {
    const index_t rows[] = {3, bad};
    const QueuePart parts[] = {{{rows, {}, true}, 0.0, false}};
    EXPECT_THROW(
        schedule_workqueue(parts, tables, cfg, a_.rows, 0, 0, plat_),
        CheckError)
        << bad;
  }
  // Every part needs a table over all of A's rows.
  const index_t rows[] = {3};
  const QueuePart parts[] = {{{rows, {}, true}, 0.0, false}};
  const std::span<const ProductStats> short_tables[] = {
      std::span(table).first(table.size() - 1)};
  EXPECT_THROW(
      schedule_workqueue(parts, short_tables, cfg, a_.rows, 0, 0, plat_),
      CheckError);
}

TEST(WorkQueueConfigTest, AutoScalesWithInstance) {
  WorkQueueConfig cfg;  // cpu_rows = 0 → auto
  const WorkQueueConfig small = resolve_queue_config(cfg, 1000);
  EXPECT_EQ(small.cpu_rows, 16);  // clamped at the floor
  EXPECT_EQ(small.gpu_rows, 160);
  const WorkQueueConfig paper = resolve_queue_config(cfg, 160000);
  EXPECT_EQ(paper.cpu_rows, 1000);  // the paper's cpuRows at full size
  EXPECT_EQ(paper.gpu_rows, 10000);  // and gpuRows (§IV-B)
  WorkQueueConfig manual;
  manual.cpu_rows = 123;
  manual.gpu_rows = 456;
  const WorkQueueConfig kept = resolve_queue_config(manual, 1000000);
  EXPECT_EQ(kept.cpu_rows, 123);
  EXPECT_EQ(kept.gpu_rows, 456);
}

TEST(WorkQueueConfigTest, TinyInstancesStayWithinBounds) {
  // Regression: the auto clamp's 16-row floor used to exceed the instance
  // itself for a_rows < 16. Auto units must satisfy 1 <= cpu_rows <= a_rows
  // (when a_rows >= 1) and gpu_rows >= 1 for every size.
  WorkQueueConfig cfg;  // auto
  for (index_t rows : {0, 1, 2, 3, 7, 15, 16, 17}) {
    const WorkQueueConfig r = resolve_queue_config(cfg, rows);
    EXPECT_GE(r.cpu_rows, 1) << "a_rows=" << rows;
    EXPECT_GE(r.gpu_rows, 1) << "a_rows=" << rows;
    if (rows >= 1) {
      EXPECT_LE(r.cpu_rows, std::max<index_t>(rows, 1)) << "a_rows=" << rows;
    }
  }
  EXPECT_EQ(resolve_queue_config(cfg, 5).cpu_rows, 5);
  EXPECT_EQ(resolve_queue_config(cfg, 1).cpu_rows, 1);
}

TEST(WorkQueueConfigTest, TinyMatrixQueueRunsToCompletion) {
  // End-to-end on a 7-row instance: auto unit sizes must not starve either
  // end or drop rows.
  const CsrMatrix m = test::random_csr(7, 7, 0.4, 33);
  const std::vector<index_t> rows = all_rows(m);
  const QueuePart parts[] = {{{rows, {}, true}, 0.0, false}};
  HeteroPlatform plat;
  ThreadPool pool(2);
  const WorkQueueResult r =
      run_queue(m, parts, WorkQueueConfig{}, 0, 0, plat, pool);
  EXPECT_EQ(r.cpu_stats.rows + r.gpu_stats.rows, m.rows);
  const CsrMatrix want = gustavson_spgemm(m, m);
  std::string why;
  EXPECT_TRUE(approx_equal(want, r.tuples, 1e-12, &why)) << why;
}

TEST(SortedWorkqueue, DensestFirst) {
  const CsrMatrix m = test::random_csr(50, 50, 0.2, 81);
  const std::vector<index_t> rows = densest_first_rows(m);
  ASSERT_EQ(rows.size(), static_cast<std::size_t>(m.rows));
  for (std::size_t i = 1; i < rows.size(); ++i) {
    EXPECT_GE(m.row_nnz(rows[i - 1]), m.row_nnz(rows[i]));
    if (m.row_nnz(rows[i - 1]) == m.row_nnz(rows[i])) {
      EXPECT_LT(rows[i - 1], rows[i]) << "ties keep natural order";
    }
  }
}

}  // namespace
}  // namespace hh
