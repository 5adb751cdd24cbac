// The one JSON reader: strict RFC 8259 text into a small value tree, used by
// the workload log, the perf baselines and the tests. No extensions: no
// '+1', '01', '.5' or '1.', no comments or trailing commas, no raw control
// characters or unknown escapes, no duplicate keys. Bytes >= 0x80 pass
// through, so every string fmt_json_str (util/format.hpp) writes reads back.
// Numbers keep their raw text until read: u64 checksums survive past 2^53
// and "%.17g" doubles keep their bits.
#pragma once

#include <charconv>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace hh {

class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type() const { return type_; }
  /// The member name when this value sits in an object, else empty.
  const std::string& key() const { return key_; }

  /// This scalar as T: bool, std::string, double, or an integer type (from
  /// integer text only, in T's range). Throws ParseError, naming the
  /// member's key, on any other type or text.
  template <class T>
  T as() const {
    if constexpr (std::is_same_v<T, bool>) {
      expect(Type::kBool);
      return text_ == "true";
    } else if constexpr (std::is_same_v<T, std::string>) {
      expect(Type::kString);
      return text_;
    } else {
      expect(Type::kNumber);
      T v{};
      const char* end = text_.data() + text_.size();
      const auto r = std::from_chars(text_.data(), end, v);
      if (r.ec != std::errc() || r.ptr != end) {
        bad_number(std::is_integral_v<T> ? "an integer in range"
                                         : "a double");
      }
      return v;
    }
  }

  /// Array elements, or object members in document order (see key()).
  const std::vector<JsonValue>& items() const;
  /// Object member `key`: find() returns nullptr when it is absent, at()
  /// throws ParseError naming it. Both throw unless this is an object.
  const JsonValue* find(std::string_view key) const;
  const JsonValue& at(std::string_view key) const;

 private:
  friend class JsonParser;

  std::string name() const;  // how errors name this value
  void expect(Type t) const;
  [[noreturn]] void bad_number(const char* want) const;

  Type type_ = Type::kNull;
  std::string key_;
  std::string text_;  // string: unescaped; number: raw text; bool: literal
  std::vector<JsonValue> items_;
};

/// Parse one complete JSON text; whitespace may surround the value.
/// Anything else throws ParseError with the byte offset of the fault.
JsonValue parse_json(std::string_view text);

}  // namespace hh
