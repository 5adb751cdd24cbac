// Invariants of the simulated devices: the qualitative effects the paper
// argues from must be monotone consequences of the cost models.
#include <gtest/gtest.h>

#include "device/platform.hpp"
#include "spgemm/spgemm.hpp"

namespace hh {
namespace {

ProductStats narrow_rows_stats(std::int64_t rows, std::int64_t flops_per_row) {
  // Short B rows, outputs within the shared accumulator.
  ProductStats s;
  s.rows = rows;
  s.flops = rows * flops_per_row;
  s.a_nnz = rows * flops_per_row / 3;
  s.tuples = s.flops;
  s.max_row_flops = flops_per_row;
  s.warp_alu = s.a_nnz;  // one warp instruction per short B row
  s.flops_shared = s.flops;
  s.b_read_bytes = s.a_nnz * 64;
  return s;
}

ProductStats wide_rows_stats(std::int64_t rows, std::int64_t flops_per_row) {
  // Long B rows, outputs larger than the shared accumulator.
  ProductStats s;
  s.rows = rows;
  s.flops = rows * flops_per_row;
  s.a_nnz = rows * 4;
  s.tuples = s.flops / 4;
  s.max_row_flops = flops_per_row;
  s.warp_alu = s.flops / 32 + s.a_nnz;
  s.flops_global = s.flops;
  s.b_read_bytes = s.flops * 12 + s.a_nnz * 32;
  return s;
}

class DeviceTest : public testing::Test {
 protected:
  HeteroPlatform plat_;
};

TEST_F(DeviceTest, GpuTimeMonotoneInWork) {
  const double t1 = plat_.gpu().kernel_time(narrow_rows_stats(1000, 30));
  const double t2 = plat_.gpu().kernel_time(narrow_rows_stats(2000, 30));
  EXPECT_GT(t2, t1);
}

TEST_F(DeviceTest, GpuEmptyWorkIsFree) {
  EXPECT_DOUBLE_EQ(plat_.gpu().kernel_time(ProductStats{}), 0.0);
  EXPECT_DOUBLE_EQ(plat_.cpu().kernel_time(ProductStats{}, 0, false), 0.0);
}

TEST_F(DeviceTest, GpuGlobalPathCostsMoreThanSharedPath) {
  // Same flops; wide-output (global PartialOutput) vs narrow (shared).
  ProductStats wide = wide_rows_stats(100, 3000);
  ProductStats narrow = narrow_rows_stats(10000, 30);
  narrow.b_read_bytes = wide.b_read_bytes;  // isolate the write-path effect
  EXPECT_GT(plat_.gpu().kernel_time(wide), plat_.gpu().kernel_time(narrow));
}

TEST_F(DeviceTest, GpuSerializationOnOneHugeRow) {
  // Concentrating the same flops in one row must not be cheaper: the row is
  // bound to a single warp.
  ProductStats spread = narrow_rows_stats(100000, 32);
  ProductStats lump = spread;
  lump.max_row_flops = lump.flops;  // all in one row
  EXPECT_GE(plat_.gpu().kernel_time(lump), plat_.gpu().kernel_time(spread));
}

TEST_F(DeviceTest, GpuGenericKernelSlowerThanTunedKernel) {
  const ProductStats s = narrow_rows_stats(10000, 30);
  EXPECT_GT(plat_.gpu().generic_time(s), plat_.gpu().kernel_time(s));
}

TEST_F(DeviceTest, CpuCachedWorkingSetFasterThanStreamed) {
  const ProductStats s = wide_rows_stats(1000, 300);
  const double small_ws = plat_.cpu().kernel_time(s, 1024, false, true);
  const double big_ws =
      plat_.cpu().kernel_time(s, 1e9, false, true);
  EXPECT_GT(big_ws, small_ws);
}

TEST_F(DeviceTest, CpuBlockableAvoidsScatterPenalty) {
  const ProductStats s = wide_rows_stats(1000, 300);
  const double blocked = plat_.cpu().kernel_time(s, 1024, false, true);
  const double generic = plat_.cpu().kernel_time(s, 1024, false, false);
  EXPECT_GT(generic, blocked);
}

TEST_F(DeviceTest, RewrittenKernelPays15To20Percent) {
  const ProductStats s = narrow_rows_stats(1000, 30);
  const double mkl_like = plat_.cpu().kernel_time(s, 1e9, false);
  const double rewritten = plat_.cpu().kernel_time(s, 1e9, true);
  const double ratio = rewritten / mkl_like;
  EXPECT_GT(ratio, 1.14);  // §III-B: 15–20 % slower than MKL
  EXPECT_LT(ratio, 1.21);
}

TEST_F(DeviceTest, LibraryTwoPassFactorApplied) {
  const ProductStats s = narrow_rows_stats(1000, 30);
  const double kernel = plat_.cpu().kernel_time(s, 1e9, false, false);
  const double library = plat_.cpu().library_time(s, 1e9);
  EXPECT_NEAR(library / kernel, plat_.cost_model().cpu.library_two_phase_factor,
              1e-9);
}

TEST_F(DeviceTest, PcieCalibrationMatchesPaper) {
  // §IV-A: a matrix with ~5 M nonzeros takes ~25–30 ms to ship.
  CsrMatrix m(1000000, 1000000);
  m.indices.resize(5000000);
  m.values.resize(5000000);
  m.indptr.back() = 5000000;
  const double t = plat_.link().matrix_transfer_time(m);
  EXPECT_GT(t, 0.020);
  EXPECT_LT(t, 0.035);
}

TEST_F(DeviceTest, PcieLatencyFloor) {
  for (const PcieChannel* ch : {&plat_.link().h2d(), &plat_.link().d2h()}) {
    EXPECT_GE(ch->transfer_time(1.0), plat_.cost_model().pcie.latency_s);
    EXPECT_DOUBLE_EQ(ch->transfer_time(0.0), 0.0);
  }
}

TEST_F(DeviceTest, TupleTransferLinearInCount) {
  const double t1 = plat_.link().d2h().tuple_transfer_time(1000000);
  const double t2 = plat_.link().d2h().tuple_transfer_time(2000000);
  EXPECT_NEAR(t2 - plat_.cost_model().pcie.latency_s,
              2 * (t1 - plat_.cost_model().pcie.latency_s), 1e-9);
}

TEST_F(DeviceTest, ClassificationIsCheap) {
  // Phase I must be negligible (paper: I + IV under 4 %).
  EXPECT_LT(plat_.gpu().classify_time(4000000), 1e-3);
  EXPECT_LT(plat_.cpu().classify_time(4000000), 1e-3);
}

TEST_F(DeviceTest, OverlapIsMax) {
  EXPECT_DOUBLE_EQ(HeteroPlatform::overlap(1.0, 2.0), 2.0);
  EXPECT_DOUBLE_EQ(HeteroPlatform::overlap(3.0, 2.0), 3.0);
}

TEST(ScaledPlatform, ShrinksCapacitiesNotRates) {
  const std::int64_t cap_before = shared_accum_cap();
  const HeteroPlatform full = make_scaled_platform(1.0);
  const std::int64_t cap_full = shared_accum_cap();
  const HeteroPlatform half = make_scaled_platform(0.5);
  const std::int64_t cap_half = shared_accum_cap();
  EXPECT_NEAR(half.cost_model().cpu.l3_bytes,
              0.5 * full.cost_model().cpu.l3_bytes, 1.0);
  EXPECT_EQ(half.cost_model().cpu.clock_ghz, full.cost_model().cpu.clock_ghz);
  EXPECT_LT(cap_half, cap_full);
  set_shared_accum_cap(cap_before);
}

}  // namespace
}  // namespace hh
