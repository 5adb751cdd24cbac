#include "util/status.hpp"

namespace hh {

const char* to_string(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return "ok";
    case StatusCode::kInvalidArgument: return "invalid_argument";
    case StatusCode::kParseError: return "parse_error";
    case StatusCode::kResourceExhausted: return "resource_exhausted";
    case StatusCode::kDeadlineExceeded: return "deadline_exceeded";
    case StatusCode::kInternal: return "internal";
  }
  return "?";
}

std::string Status::to_string() const {
  std::string s = hh::to_string(code);
  if (!message.empty()) {
    s += ": ";
    s += message;
  }
  return s;
}

}  // namespace hh
