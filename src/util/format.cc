#include "util/format.hpp"

#include <cstdio>

namespace hh {

std::string fmt_num(double x) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", x);
  return buf;
}

std::string fmt_exact(double x) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", x);
  return buf;
}

std::string fmt_ms(double seconds) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f ms", seconds * 1e3);
  return buf;
}

std::string fmt_latency(double p50_s, double p95_s, double p99_s) {
  return "p50 " + fmt_ms(p50_s) + ", p95 " + fmt_ms(p95_s) + ", p99 " +
         fmt_ms(p99_s);
}

std::string fmt_json_str(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  for (const char c : s) {
    const auto u = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (u < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", u);
      out += buf;
    } else {
      out += c;
    }
  }
  out += '"';
  return out;
}

}  // namespace hh
