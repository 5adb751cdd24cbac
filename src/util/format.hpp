// Number, bool and string formatting shared by every report's to_string /
// to_json.
//
// Two precisions exist on purpose: reports render nine significant digits
// (stable, readable, enough to compare runs), while logs and baselines that
// are parsed back render seventeen, which round-trips every double exactly.
#pragma once

#include <string>
#include <string_view>

namespace hh {

/// "%.9g": report numbers.
std::string fmt_num(double x);

/// "%.17g": exact round-trip numbers for logs and baselines.
std::string fmt_exact(double x);

/// "%.3f ms" of a duration given in seconds.
std::string fmt_ms(double seconds);

/// "p50 X ms, p95 Y ms, p99 Z ms".
std::string fmt_latency(double p50_s, double p95_s, double p99_s);

/// JSON literal of a bool.
inline const char* fmt_bool(bool b) { return b ? "true" : "false"; }

/// JSON string literal of `s`, quotes included: '"' and '\' are
/// backslash-escaped and control characters become \u00XX. The one writer
/// for caller-supplied text (labels, statuses, explanations) in JSON.
std::string fmt_json_str(std::string_view s);

}  // namespace hh
