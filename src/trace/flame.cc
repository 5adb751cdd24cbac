#include "trace/flame.hpp"

#include <algorithm>
#include <sstream>

#include "util/format.hpp"

namespace hh {
namespace {

char request_glyph(std::size_t request_id) {
  if (request_id == kNoRequest) return '#';
  return "0123456789abcdefghijklmnopqrstuvwxyz"[request_id % 36];
}

/// Paint [start, end) of a span into a row covering [t0, t1]. A span always
/// claims at least one cell so short stages stay visible.
void paint(std::string& row, double t0, double t1, double start, double end,
           char glyph) {
  const int width = static_cast<int>(row.size());
  if (t1 <= t0 || end <= start) return;
  const double scale = static_cast<double>(width) / (t1 - t0);
  int lo = static_cast<int>((start - t0) * scale);
  int hi = static_cast<int>((end - t0) * scale);
  lo = std::clamp(lo, 0, width - 1);
  hi = std::clamp(hi, lo + 1, width);
  for (int i = lo; i < hi; ++i) row[static_cast<std::size_t>(i)] = glyph;
}

}  // namespace

std::string flame_view(std::span<const TraceEvent> events, int width) {
  width = std::max(width, 8);
  double t_max = 0;
  bool any = false;
  for (const TraceEvent& e : events) {
    if (e.kind != TraceEventKind::kSpan) continue;
    t_max = std::max(t_max, e.end_s);
    any = true;
  }
  if (!any || t_max <= 0) return "";

  std::string rows[kResourceCount];
  double busy[kResourceCount] = {};
  for (auto& row : rows) row.assign(static_cast<std::size_t>(width), '.');
  for (const TraceEvent& e : events) {
    if (e.kind != TraceEventKind::kSpan || !e.has_resource) continue;
    const int r = static_cast<int>(e.resource);
    paint(rows[r], 0, t_max, e.start_s, e.end_s, request_glyph(e.request_id));
    busy[r] += e.end_s - e.start_s;
  }

  std::ostringstream os;
  for (int r = 0; r < kResourceCount; ++r) {
    os << "  " << to_string(static_cast<Resource>(r)) << "  |" << rows[r]
       << "| busy " << fmt_ms(busy[r]) << " / " << fmt_ms(t_max) << "\n";
  }
  return os.str();
}

std::string flame_view(const TraceRecorder& recorder, int width) {
  return flame_view(recorder.events(), width);
}

std::string flame_row(const std::vector<StageSpan>& spans, double t0,
                      double t1, int width) {
  width = std::max(width, 8);
  std::string row(static_cast<std::size_t>(width), '.');
  static constexpr char kLetter[kResourceCount] = {'C', 'G', 'H', 'D'};
  for (const StageSpan& s : spans) {
    const char glyph = is_fault_stage(s.stage)
                           ? '!'
                           : kLetter[static_cast<int>(s.resource)];
    paint(row, t0, t1, s.start_s, s.end_s, glyph);
  }
  return row;
}

}  // namespace hh
