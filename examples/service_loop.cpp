// Service loop: drive the pipelined SpGEMM runtime the way a long-lived
// analytics service would — requests trickle in, get batched, and each
// drain() schedules them over the four resource timelines (CPU, GPU, H2D,
// D2H). The second batch repeats a matrix, so its requests hit the
// partition-plan cache and find their operands already resident on the
// device.
//
// Both drains are recorded with a TraceRecorder; the example finishes by
// exporting service_loop_trace.json (Chrome trace-event / Perfetto format)
// and printing the service's lifetime metrics registry.
//
//   ./service_loop
#include <cstdio>

#include "gen/datasets.hpp"
#include "runtime/service.hpp"
#include "trace/perfetto_export.hpp"
#include "util/thread_pool.hpp"

int main() {
  using namespace hh;

  ThreadPool pool(0);
  const double scale = 0.05;
  const HeteroPlatform platform = make_scaled_platform(scale);

  const CsrMatrix enron = make_dataset(dataset_spec("email-Enron"), scale);
  const CsrMatrix wiki = make_dataset(dataset_spec("wiki-Vote"), scale);

  TraceRecorder recorder;
  recorder.enable();
  SpgemmService::Config cfg;
  cfg.trace = &recorder;
  SpgemmService service(platform, pool, cfg);

  // Batch 1: two cold squarings. Everything is a plan-cache miss and both
  // matrices cross the H2D channel.
  service.submit({&enron, nullptr, 0, 0, "enron^2"});
  service.submit({&wiki, nullptr, 0, 0, "wiki^2"});
  const BatchResult first = service.drain();
  std::printf("---- batch 1 (cold) ----\n%s\n",
              first.batch.to_string().c_str());

  // Batch 2: the same squarings again. The repeats reuse cached plans and
  // resident operands (note h2d busy drops to zero); only the work itself
  // is re-executed, so the results are still exact.
  service.submit({&enron, nullptr, 0, 0, "enron^2 again"});
  service.submit({&wiki, nullptr, 0, 0, "wiki^2 again"});
  const BatchResult second = service.drain();
  std::printf("---- batch 2 (warm) ----\n%s\n",
              second.batch.to_string().c_str());

  for (const RequestReport& r : second.requests) {
    std::printf("%s", r.to_string().c_str());
  }

  // The embedded critical-path profile answers "why was this request
  // slow" per request (docs/observability.md, latency attribution).
  std::printf("\n---- why were the warm requests this fast/slow? ----\n");
  for (const RequestReport& r : second.requests) {
    if (const RequestCostBreakdown* why =
            second.batch.critpath.find_request(r.request_id)) {
      std::printf("%s\n", why->explain().c_str());
    }
  }

  std::printf("\nwarm vs cold makespan: %.3f ms vs %.3f ms\n",
              second.batch.makespan_s * 1e3, first.batch.makespan_s * 1e3);

  const char* trace_path = "service_loop_trace.json";
  if (write_chrome_trace(recorder, trace_path)) {
    std::printf("\ntrace: %zu events -> %s (load in ui.perfetto.dev)\n",
                recorder.events().size(), trace_path);
  }
  std::printf("\nlifetime metrics:\n%s", service.metrics().to_string().c_str());
  return 0;
}
