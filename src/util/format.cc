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

}  // namespace hh
