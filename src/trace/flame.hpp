// Compact text flame views of recorded schedules.
//
// flame_view() renders one fixed-width row per resource over the whole
// recorded window, each span drawn with its request's base-36 glyph — the
// quickest way to see pipeline bubbles and which request owns them without
// leaving the terminal. flame_row() renders one request's own spans as a
// single row (C/G/H/D per resource, '!' for fault attempts), used by
// RequestReport::to_string().
#pragma once

#include <span>
#include <string>
#include <vector>

#include "runtime/resource.hpp"
#include "trace/trace.hpp"

namespace hh {

/// Multi-line, one row per resource:
///   cpu  |00011222...| busy 12.4 ms / 20.0 ms
/// Glyphs are the owning request id mod 36 (0-9a-z), '.' is idle, '#' marks
/// spans with no request identity. Empty string when nothing was recorded.
std::string flame_view(std::span<const TraceEvent> events, int width = 64);
std::string flame_view(const TraceRecorder& recorder, int width = 64);

/// Single row over [t0, t1] for one request's spans: C = cpu, G = gpu,
/// H = h2d, D = d2h; fault/abort/corrupt attempts render as '!'.
std::string flame_row(const std::vector<StageSpan>& spans, double t0,
                      double t1, int width = 48);

}  // namespace hh
