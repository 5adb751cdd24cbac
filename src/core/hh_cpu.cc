#include "core/hh_cpu.hpp"

#include "core/hh_stages.hpp"
#include "spgemm/spgemm.hpp"

namespace hh {
namespace {

// Input transfer: A and B go to the GPU whole, with the Boolean arrays
// (§IV-A: the matrices are not physically split).
double input_transfer_s(const CsrMatrix& a, const CsrMatrix& b,
                        const HhCpuOptions& options,
                        const HeteroPlatform& platform) {
  if (options.matrices_already_on_gpu) return 0;
  return platform.link().h2d().operands_transfer_time(a, b);
}

// Device clocks entering the queue: both saw Phase I; the GPU also waited
// for the input transfer before its Phase II kernel.
struct QueueStart {
  double cpu_s = 0;
  double gpu_s = 0;
};

QueueStart queue_start(const PartitionPlan& plan, double transfer_in_s,
                       const Phase2Result& p2) {
  return {plan.phase1_s + p2.cpu_s, plan.phase1_s + transfer_in_s + p2.gpu_s};
}

// The serial accounting (phases back-to-back, transfers bracketing the
// compute) of `plan` from the row costs at its B threshold: Phases II and
// III priced from the costs in place, Phase IV from their tuple counts and
// the output size. run_hh_cpu, cost_hh_cpu and cost_hh_cpu_grid all build
// their report here.
RunReport cost_report(const PartitionPlan& plan, const MaskedRowCosts& costs,
                      double transfer_in_s, const HhCpuOptions& options,
                      const HeteroPlatform& platform) {
  const Phase2Result p2 = cost_phase2(plan, costs, platform);
  const QueueStart at = queue_start(plan, transfer_in_s, p2);
  const WorkQueueResult queue = cost_phase3(plan, costs, options.queue,
                                            at.cpu_s, at.gpu_s, platform);
  RunReport rep;
  rep.algorithm = "HH-CPU";
  rep.phase1_s = plan.phase1_s;
  rep.threshold_a = plan.a.threshold;
  rep.threshold_b = plan.b.threshold;
  rep.high_rows_a = plan.a.high_count();
  rep.high_rows_b = plan.b.high_count();
  rep.transfer_in_s = transfer_in_s;

  rep.phase2_cpu_s = p2.cpu_s;
  rep.phase2_gpu_s = p2.gpu_s;
  rep.phase2_s = HeteroPlatform::overlap(p2.cpu_s, p2.gpu_s);

  rep.phase3_cpu_s = queue.cpu_busy;
  rep.phase3_gpu_s = queue.gpu_busy;
  rep.phase3_s = HeteroPlatform::overlap(queue.cpu_busy, queue.gpu_busy);
  rep.queue_cpu_units = queue.cpu_units;
  rep.queue_gpu_units = queue.gpu_units;

  // Phase IV merges all tuples; the GPU partials cross PCIe first (the
  // transfer is Algorithm 1's separate "GPU -> CPU::" step, line 10, and is
  // reported outside the Phase IV time as in Fig. 7).
  const std::int64_t gpu_tuples = p2.ll_stats.tuples + queue.gpu_stats.tuples;
  rep.transfer_out_s = platform.link().d2h().tuple_transfer_time(gpu_tuples);
  rep.flops = p2.hh_stats.flops + p2.ll_stats.flops + queue.cpu_stats.flops +
              queue.gpu_stats.flops;
  rep.merge.tuples_in = p2.hh_stats.tuples + p2.ll_stats.tuples +
                        queue.cpu_stats.tuples + queue.gpu_stats.tuples;
  rep.merge.tuples_out = costs.output_nnz;
  rep.output_nnz = costs.output_nnz;
  rep.phase4_s = platform.cpu().merge_time(rep.merge.tuples_in);
  rep.total_s = queue.end_time() + rep.transfer_out_s + rep.phase4_s;
  return rep;
}

}  // namespace

// The serial driver: the dry run's pricing plus one numeric pass into C.
// The pipelined runtime (src/runtime/) prices the same stages
// (core/hh_stages.hpp) on per-resource timelines and writes C with the
// same pass.
RunResult run_hh_cpu(const CsrMatrix& a, const CsrMatrix& b,
                     const HhCpuOptions& options,
                     const HeteroPlatform& platform, ThreadPool& pool) {
  check_operands(a, b);
  const PartitionPlan plan = make_partition_plan(
      a, b, options.threshold_a, options.threshold_b, platform);
  RunResult res;
  res.c = CsrMatrix(a.rows, b.cols);
  // The row costs are freed once priced; C's row sizes stay in its indptr.
  res.report = cost_report(plan,
                           row_costs_at(a, b, plan.b.threshold, pool,
                                        std::span(res.c.indptr).subspan(1)),
                           input_transfer_s(a, b, options, platform), options,
                           platform);
  numeric_in_halves(a, b, plan.a.is_high, plan.b.is_high, res.c, pool,
                    options.workspace);
  return res;
}

RunReport cost_hh_cpu(const CsrMatrix& a, const CsrMatrix& b,
                      const HhCpuOptions& options,
                      const HeteroPlatform& platform, ThreadPool& pool) {
  check_operands(a, b);
  const PartitionPlan plan = make_partition_plan(
      a, b, options.threshold_a, options.threshold_b, platform);
  return cost_report(plan, row_costs_at(a, b, plan.b.threshold, pool),
                     input_transfer_s(a, b, options, platform), options,
                     platform);
}

std::vector<RunReport> cost_hh_cpu_grid(const CsrMatrix& a, const CsrMatrix& b,
                                        std::span<const offset_t> grid,
                                        const HhCpuOptions& options,
                                        const HeteroPlatform& platform,
                                        ThreadPool& pool) {
  check_operands(a, b);
  const double transfer_in = input_transfer_s(a, b, options, platform);
  std::vector<RunReport> reports;
  reports.reserve(grid.size());
  row_costs_on_grid(
      a, b, grid, pool, [&](std::size_t g, const MaskedRowCosts& costs) {
        const PartitionPlan plan =
            make_partition_plan(a, b, grid[g], grid[g], platform);
        reports.push_back(
            cost_report(plan, costs, transfer_in, options, platform));
      });
  return reports;
}

}  // namespace hh
