// Typed error taxonomy for the library and the service runtime.
//
// StatusCode names the failure classes the library reports: caller mistakes
// (kInvalidArgument, kParseError), overload (kResourceExhausted) and missed
// deadlines (kDeadlineExceeded). Injected device and transfer faults have no
// code: the service recovers each inside the drain, by a retry or the
// CPU-only path. Status is the value form carried in reports, and a deadline
// miss is only ever a Status; HhError is the throwable form, with one
// subclass per failure class a call site can catch.
// CheckError (util/check.hpp) derives from HhError with kInternal: an
// invariant violation is a bug, not an operational condition.
#pragma once

#include <stdexcept>
#include <string>

namespace hh {

enum class StatusCode {
  kOk = 0,
  kInvalidArgument,    // malformed request (caller bug)
  kParseError,         // malformed external input (file, stream)
  kResourceExhausted,  // admission queue full — request shed
  kDeadlineExceeded,   // request cancelled past its deadline
  kInternal,           // invariant violation (library bug)
};

const char* to_string(StatusCode code);

/// Value-form outcome carried in reports; ok() when code == kOk.
struct Status {
  StatusCode code = StatusCode::kOk;
  std::string message;

  bool ok() const { return code == StatusCode::kOk; }
  std::string to_string() const;
};

/// Base of every typed error the library throws.
class HhError : public std::runtime_error {
 public:
  HhError(StatusCode code, const std::string& what)
      : std::runtime_error(what), code_(code) {}

  StatusCode code() const { return code_; }
  Status status() const { return {code_, what()}; }

 private:
  StatusCode code_;
};

class InvalidArgumentError : public HhError {
 public:
  explicit InvalidArgumentError(const std::string& what)
      : HhError(StatusCode::kInvalidArgument, what) {}
};

class ParseError : public HhError {
 public:
  explicit ParseError(const std::string& what)
      : HhError(StatusCode::kParseError, what) {}
};

/// Thrown by SpgemmService::submit when the bounded admission queue is full.
class AdmissionError : public HhError {
 public:
  explicit AdmissionError(const std::string& what)
      : HhError(StatusCode::kResourceExhausted, what) {}
};

}  // namespace hh
