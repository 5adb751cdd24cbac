#include "trace/perfetto_export.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

#include "util/format.hpp"

namespace hh {
namespace {

// tids 1..kResourceCount are the resource tracks; the service track follows.
constexpr int kServiceTid = kResourceCount + 1;

int tid_of(const TraceEvent& e) {
  return e.has_resource ? static_cast<int>(e.resource) + 1 : kServiceTid;
}

// Each TraceEvent track renders as its own Perfetto process, so a shard
// group's re-recorded per-shard spans (trace/trace.hpp: track = shard + 1)
// get their own CPU/GPU/H2D/D2H rows instead of falsely overlapping the
// group's rows.
int pid_of(const TraceEvent& e) { return static_cast<int>(e.track) + 1; }

// %.17g round-trips the double exactly: a span's ts + dur must equal the
// next span's ts wherever the timeline placed them back to back, or the
// rendered tracks show sub-ns overlaps that are artifacts of printing.
std::string us(double seconds) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", seconds * 1e6);
  return buf;
}

// dur is derived from the already-converted endpoints, not from
// (end - start) * 1e6, so ts + dur reproduces us(end_s) bit-for-bit.
std::string us_delta(double start_seconds, double end_seconds) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g",
                end_seconds * 1e6 - start_seconds * 1e6);
  return buf;
}

void append_args(std::ostringstream& os, const TraceEvent& e) {
  os << "\"args\":{";
  bool first = true;
  if (e.request_id != kNoRequest) {
    os << "\"request\":" << e.request_id;
    first = false;
  }
  if (e.kind == TraceEventKind::kSpan) {
    if (!first) os << ",";
    os << "\"requested_us\":" << us(e.requested_s) << ",\"bubble_us\":"
       << us(e.start_s - e.requested_s);
    first = false;
  }
  if (e.device_op != kNoDeviceOp) {
    if (!first) os << ",";
    os << "\"device_op\":" << e.device_op;
  }
  os << "}";
}

void append_meta(std::ostringstream& os, int pid, int tid, const char* name) {
  os << ",{\"ph\":\"M\",\"pid\":" << pid << ",\"tid\":" << tid
     << ",\"name\":\"thread_name\",\"args\":{\"name\":\"" << name << "\"}}";
}

}  // namespace

std::string chrome_trace_json(const TraceRecorder& recorder) {
  std::uint32_t max_track = 0;
  for (const TraceEvent& e : recorder.events()) {
    max_track = std::max(max_track, e.track);
  }

  std::ostringstream os;
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::uint32_t t = 0; t <= max_track; ++t) {
    const int pid = static_cast<int>(t) + 1;
    os << (t == 0 ? "" : ",") << "{\"ph\":\"M\",\"pid\":" << pid
       << ",\"name\":\"process_name\",\"args\":{\"name\":\"";
    if (t == 0) {
      os << "hh-runtime";
    } else {
      os << "hh-shard-" << (t - 1);
    }
    os << "\"}}";
    for (int r = 0; r < kResourceCount; ++r) {
      append_meta(os, pid, r + 1, to_string(static_cast<Resource>(r)));
    }
    append_meta(os, pid, kServiceTid, "service");
  }

  for (const TraceEvent& e : recorder.events()) {
    os << ",{\"name\":" << fmt_json_str(e.name) << ",\"cat\":\""
       << to_string(e.category) << "\",\"pid\":" << pid_of(e)
       << ",\"tid\":" << tid_of(e) << ",\"ts\":" << us(e.start_s) << ",";
    if (e.kind == TraceEventKind::kSpan) {
      os << "\"ph\":\"X\",\"dur\":" << us_delta(e.start_s, e.end_s) << ",";
    } else {
      os << "\"ph\":\"i\",\"s\":\"t\",";
    }
    append_args(os, e);
    os << "}";
  }

  // Per-request flow arrows over the spans, in start order.
  std::vector<const TraceEvent*> spans;
  for (const TraceEvent& e : recorder.events()) {
    if (e.kind == TraceEventKind::kSpan && e.request_id != kNoRequest) {
      spans.push_back(&e);
    }
  }
  std::stable_sort(spans.begin(), spans.end(),
                   [](const TraceEvent* a, const TraceEvent* b) {
                     if (a->request_id != b->request_id) {
                       return a->request_id < b->request_id;
                     }
                     return a->start_s < b->start_s;
                   });
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const TraceEvent& e = *spans[i];
    const bool first =
        i == 0 || spans[i - 1]->request_id != e.request_id;
    const bool last = i + 1 == spans.size() ||
                      spans[i + 1]->request_id != e.request_id;
    if (first && last) continue;  // single-span request: nothing to link
    os << ",{\"ph\":\"" << (first ? "s" : last ? "f" : "t")
       << "\",\"id\":" << e.request_id << ",\"name\":\"request\","
       << "\"cat\":\"flow\",\"pid\":" << pid_of(e) << ",\"tid\":" << tid_of(e)
       << ",\"ts\":" << us(e.start_s);
    if (last) os << ",\"bp\":\"e\"";
    os << "}";
  }

  // Critical-chain flow arrows over the kCritPath instants the service
  // emitted after attribution (obs/critpath.hpp), in chain order. A distinct
  // category + name keeps these flows from binding to the per-request ones
  // (Chrome matches flows by (cat, name, id)); per (track, chain) they form
  // one arrow thread tracing where the makespan was spent.
  std::vector<const TraceEvent*> crit;
  for (const TraceEvent& e : recorder.events()) {
    if (e.kind == TraceEventKind::kInstant &&
        e.category == TraceCategory::kCritPath) {
      crit.push_back(&e);
    }
  }
  std::stable_sort(crit.begin(), crit.end(),
                   [](const TraceEvent* a, const TraceEvent* b) {
                     if (a->track != b->track) return a->track < b->track;
                     return a->start_s < b->start_s;
                   });
  for (std::size_t i = 0; i < crit.size(); ++i) {
    const TraceEvent& e = *crit[i];
    const bool first = i == 0 || crit[i - 1]->track != e.track;
    const bool last = i + 1 == crit.size() || crit[i + 1]->track != e.track;
    if (first && last) continue;  // one-step chain: nothing to link
    os << ",{\"ph\":\"" << (first ? "s" : last ? "f" : "t")
       << "\",\"id\":" << e.track << ",\"name\":\"critical-chain\","
       << "\"cat\":\"critflow\",\"pid\":" << pid_of(e)
       << ",\"tid\":" << tid_of(e) << ",\"ts\":" << us(e.start_s);
    if (last) os << ",\"bp\":\"e\"";
    os << "}";
  }

  os << "]}";
  return os.str();
}

bool write_chrome_trace(const TraceRecorder& recorder,
                        const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << chrome_trace_json(recorder) << "\n";
  return static_cast<bool>(out);
}

}  // namespace hh
