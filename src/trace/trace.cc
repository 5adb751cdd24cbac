#include "trace/trace.hpp"

#include <string_view>

namespace hh {

const char* to_string(TraceCategory c) {
  switch (c) {
    case TraceCategory::kCompute: return "compute";
    case TraceCategory::kTransfer: return "transfer";
    case TraceCategory::kScheduler: return "scheduler";
    case TraceCategory::kFault: return "fault";
    case TraceCategory::kRetry: return "retry";
    case TraceCategory::kDegrade: return "degrade";
    case TraceCategory::kCancel: return "cancel";
    case TraceCategory::kTune: return "tune";
    case TraceCategory::kShard: return "shard";
    case TraceCategory::kSlo: return "slo";
    case TraceCategory::kWave: return "wave";
    case TraceCategory::kCritPath: return "critpath";
  }
  return "?";
}

bool is_fault_stage(const char* stage) {
  const std::string_view name(stage);
  return name.ends_with("-fault") || name.ends_with("-corrupt") ||
         name.ends_with("-abort");
}

}  // namespace hh
