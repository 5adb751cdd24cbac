#include "util/json.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "util/status.hpp"

namespace hh {
namespace {

constexpr int kMaxDepth = 256;  // deeper input is rejected, not recursed

const char* type_name(JsonValue::Type t) {
  static const char* const kNames[] = {"null",     "a bool",   "a number",
                                       "a string", "an array", "an object"};
  return kNames[static_cast<int>(t)];
}

bool is_digit(char c) { return c >= '0' && c <= '9'; }

void append_utf8(std::string& out, std::uint32_t cp) {
  if (cp < 0x80) {
    out += static_cast<char>(cp);
    return;
  }
  const int n = cp < 0x800 ? 1 : cp < 0x10000 ? 2 : 3;  // continuation bytes
  out += static_cast<char>(((0xff00 >> (n + 1)) & 0xff) | (cp >> (6 * n)));
  for (int k = n - 1; k >= 0; --k) {
    out += static_cast<char>(0x80 | ((cp >> (6 * k)) & 0x3f));
  }
}

}  // namespace

// Recursive descent over the RFC 8259 grammar.
class JsonParser {
 public:
  explicit JsonParser(std::string_view s) : s_(s) {}

  JsonValue document() {
    JsonValue v = value(0);
    if (pos_ != s_.size()) fail("trailing text after the value");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw ParseError("JSON: " + why + " at offset " + std::to_string(pos_));
  }

  // '\0' past the end, which matches nothing the grammar looks for.
  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }

  void skip_ws() {
    pos_ = std::min(s_.size(), s_.find_first_not_of(" \t\n\r", pos_));
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  // A value and the whitespace around it.
  JsonValue value(int depth) {
    if (depth >= kMaxDepth) fail("nesting deeper than 256");
    skip_ws();
    JsonValue v;
    const char c = peek();
    if (c == '{' || c == '[') {
      container(v, depth);
    } else if (c == '"') {
      v.type_ = JsonValue::Type::kString;
      v.text_ = string();
    } else if (c == '-' || is_digit(c)) {
      v.type_ = JsonValue::Type::kNumber;
      v.text_ = number();
    } else {
      for (const std::string_view lit : {"true", "false", "null"}) {
        if (s_.substr(pos_, lit.size()) == lit) v.text_ = lit;
      }
      if (v.text_.empty()) fail("expected a value");
      pos_ += v.text_.size();
      v.type_ = c == 'n' ? JsonValue::Type::kNull : JsonValue::Type::kBool;
    }
    skip_ws();
    return v;
  }

  // An object or an array. Members carry their key; a duplicate throws.
  void container(JsonValue& v, int depth) {
    const bool object = s_[pos_++] == '{';
    v.type_ = object ? JsonValue::Type::kObject : JsonValue::Type::kArray;
    const char close = object ? '}' : ']';
    skip_ws();
    if (peek() == close) {
      ++pos_;
      return;
    }
    for (;;) {
      std::string key;
      if (object) {
        skip_ws();
        const std::size_t at = pos_;
        key = string();
        if (v.find(key) != nullptr) {
          pos_ = at;
          fail("duplicate key '" + key + "'");
        }
        skip_ws();
        expect(':');
      }
      v.items_.push_back(value(depth + 1));
      v.items_.back().key_ = std::move(key);
      if (peek() != ',') break;
      ++pos_;
    }
    expect(close);
  }

  // -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, kept as raw text.
  std::string number() {
    const std::size_t start = pos_;
    const auto digits = [&] {
      if (!is_digit(peek())) fail("expected a digit");
      while (is_digit(peek())) ++pos_;
    };
    if (peek() == '-') ++pos_;
    if (peek() == '0') {
      ++pos_;  // a zero stands alone: "01" leaves "1" that nothing accepts
    } else {
      digits();
    }
    if (peek() == '.') {
      ++pos_;
      digits();
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      digits();
    }
    return std::string(s_.substr(start, pos_ - start));
  }

  // The code point of a \uXXXX escape (the "\u" consumed), a UTF-16
  // surrogate pair joined.
  std::uint32_t code_point() {
    const auto hex4 = [&] {
      std::uint32_t u = 0;
      const char* p = s_.data() + pos_;
      if (s_.size() - pos_ < 4 ||
          std::from_chars(p, p + 4, u, 16).ptr != p + 4) {
        fail("invalid \\u escape");
      }
      pos_ += 4;
      return u;
    };
    const std::uint32_t hi = hex4();
    if (hi < 0xd800 || hi > 0xdfff) return hi;
    if (hi > 0xdbff || s_.substr(pos_, 2) != "\\u") fail("lone surrogate");
    pos_ += 2;
    const std::uint32_t lo = hex4();
    if (lo < 0xdc00 || lo > 0xdfff) fail("lone surrogate");
    return 0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00);
  }

  std::string string() {
    static constexpr char kEscapes[] = "\"\\/bfnrt";
    static constexpr char kBytes[] = "\"\\/\b\f\n\r\t";
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= s_.size()) fail("unterminated string");
      const char c = s_[pos_];
      if (static_cast<unsigned char>(c) < 0x20) fail("raw control character");
      ++pos_;
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      const char e = peek();
      const char* k = e != '\0' ? std::strchr(kEscapes, e) : nullptr;
      if (k == nullptr && e != 'u') fail("unknown escape");
      ++pos_;
      if (k != nullptr) {
        out += kBytes[k - kEscapes];
      } else {
        append_utf8(out, code_point());
      }
    }
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

JsonValue parse_json(std::string_view text) {
  return JsonParser(text).document();
}

std::string JsonValue::name() const {
  return key_.empty() ? "value" : "key '" + key_ + "'";
}

void JsonValue::expect(Type t) const {
  if (type_ != t) {
    throw ParseError(name() + " is " + type_name(type_) + ", expected " +
                     type_name(t));
  }
}

void JsonValue::bad_number(const char* want) const {
  throw ParseError(name() + " is not " + want + ": " + text_);
}

const std::vector<JsonValue>& JsonValue::items() const {
  if (type_ != Type::kArray) expect(Type::kObject);
  return items_;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  expect(Type::kObject);
  for (const JsonValue& v : items_) {
    if (v.key_ == key) return &v;
  }
  return nullptr;
}

const JsonValue& JsonValue::at(std::string_view key) const {
  const JsonValue* v = find(key);
  if (v == nullptr) throw ParseError("missing key '" + std::string(key) + "'");
  return *v;
}

}  // namespace hh
