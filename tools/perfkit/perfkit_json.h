// Minimal JSON machinery shared by the perfkit tools (perfkit_compare,
// perfkit_report). Plain ISO C++20, zero dependencies — same ground rules
// as tools/lint/rlcsim_lint.cpp: these run before the library builds and
// must never drag the build graph into the gating tools.
//
// Scope is deliberately small: parse the JSON the repo itself emits
// (BENCH_*.json, bench/baselines/*.json, RLCSIM_TRACE Chrome traces) into
// an ordered value tree, plus the pointer-with-selectors lookup the
// comparator's metric catalog is written in. Not a general JSON library —
// no streaming, no writer, no DOM mutation.
#pragma once

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace perfkit {

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  // Insertion order preserved: trajectory rows and blessed baselines must
  // round-trip in the order the emitter wrote, so diffs stay readable.
  std::vector<std::pair<std::string, JsonValue>> object;

  const JsonValue* find(const std::string& key) const {
    if (kind != Kind::kObject) return nullptr;
    for (const auto& [name, value] : object)
      if (name == key) return &value;
    return nullptr;
  }
};

namespace detail {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue value = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing content after JSON document");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    std::size_t line = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i)
      if (text_[i] == '\n') ++line;
    throw std::runtime_error("JSON parse error at line " +
                             std::to_string(line) + ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r'))
      ++pos_;
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const char* literal) {
    const std::size_t n = std::char_traits<char>::length(literal);
    if (text_.compare(pos_, n, literal) != 0) return false;
    pos_ += n;
    return true;
  }

  JsonValue parse_value() {
    skip_ws();
    switch (peek()) {
      case '{':
      case '[': {
        // Each nesting level is one recursion frame: cap the depth so a
        // hostile `[[[...` file fails here instead of overflowing the stack.
        if (depth_ == kMaxDepth)
          fail("nesting deeper than " + std::to_string(kMaxDepth) + " levels");
        ++depth_;
        JsonValue v = peek() == '{' ? parse_object() : parse_array();
        --depth_;
        return v;
      }
      case '"': {
        JsonValue v;
        v.kind = JsonValue::Kind::kString;
        v.string = parse_string();
        return v;
      }
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        return make_bool(true);
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        return make_bool(false);
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return JsonValue{};
      default: return parse_number();
    }
  }

  static JsonValue make_bool(bool b) {
    JsonValue v;
    v.kind = JsonValue::Kind::kBool;
    v.boolean = b;
    return v;
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    skip_ws();
    if (peek() == '}') { ++pos_; return v; }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.object.emplace_back(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      expect('}');
      return v;
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    skip_ws();
    if (peek() == ']') { ++pos_; return v; }
    for (;;) {
      v.array.push_back(parse_value());
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      expect(']');
      return v;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') { out.push_back(c); continue; }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code += static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code += static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code += static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape digit");
          }
          // BMP only (no surrogate pairs): nothing in this repo emits any,
          // and refusing beats silently mangling.
          if (code >= 0xD800 && code <= 0xDFFF) fail("surrogate \\u escape unsupported");
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default: fail("bad escape character");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-'))
      ++pos_;
    const std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (token.empty() || end != token.c_str() + token.size())
      fail("bad number '" + token + "'");
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    v.number = value;
    return v;
  }

  // The repo's own documents nest a handful of levels deep.
  static constexpr int kMaxDepth = 256;

  const std::string& text_;
  int depth_ = 0;
  std::size_t pos_ = 0;
};

}  // namespace detail

inline JsonValue parse_json(const std::string& text) {
  return detail::Parser(text).parse_document();
}

inline JsonValue parse_json_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  try {
    return parse_json(buffer.str());
  } catch (const std::runtime_error& error) {
    throw std::runtime_error(path + ": " + error.what());
  }
}

// Numeric view of a scalar: numbers pass through, booleans map to 1/0 (the
// comparator gates bit-identity booleans as exact-match numerics). Anything
// else — including null and a missing (nullptr) value — is nullopt.
inline std::optional<double> as_number(const JsonValue* v) {
  if (v == nullptr) return std::nullopt;
  if (v->kind == JsonValue::Kind::kNumber) return v->number;
  if (v->kind == JsonValue::Kind::kBool) return v->boolean ? 1.0 : 0.0;
  return std::nullopt;
}

// JSON-pointer-with-selectors lookup, the dialect the metric catalog uses:
//   /mor/gates/gate=q4_worst_pct/value
// Plain segments index object members. A `key=value` segment applied to an
// ARRAY picks the first element (an object) whose member `key` equals
// `value` — numerically when the member is a number, by "true"/"false" for
// booleans, verbatim for strings. Selectors exist so baselines survive
// array reordering (a run appended to "runs" must not shift every pointer).
// Returns nullptr as soon as any segment fails to resolve.
inline const JsonValue* resolve_pointer(const JsonValue& root,
                                        const std::string& pointer) {
  if (pointer.empty() || pointer[0] != '/') return nullptr;
  const JsonValue* node = &root;
  std::size_t pos = 1;
  while (pos <= pointer.size()) {
    const std::size_t slash = pointer.find('/', pos);
    const std::string segment = pointer.substr(
        pos, slash == std::string::npos ? std::string::npos : slash - pos);
    if (segment.empty()) return nullptr;
    const std::size_t eq = segment.find('=');
    if (node->kind == JsonValue::Kind::kArray && eq != std::string::npos) {
      const std::string key = segment.substr(0, eq);
      const std::string want = segment.substr(eq + 1);
      const JsonValue* match = nullptr;
      for (const JsonValue& element : node->array) {
        const JsonValue* member = element.find(key);
        if (member == nullptr) continue;
        bool equal = false;
        if (member->kind == JsonValue::Kind::kString) {
          equal = member->string == want;
        } else if (member->kind == JsonValue::Kind::kBool) {
          equal = want == (member->boolean ? "true" : "false");
        } else if (member->kind == JsonValue::Kind::kNumber) {
          char* end = nullptr;
          const double want_num = std::strtod(want.c_str(), &end);
          equal = end == want.c_str() + want.size() && !want.empty() &&
                  member->number == want_num;
        }
        if (equal) { match = &element; break; }
      }
      if (match == nullptr) return nullptr;
      node = match;
    } else if (node->kind == JsonValue::Kind::kObject) {
      node = node->find(segment);
      if (node == nullptr) return nullptr;
    } else {
      return nullptr;
    }
    if (slash == std::string::npos) break;
    pos = slash + 1;
  }
  return node;
}

// Canonical number rendering shared by the comparator's report, blessed
// baselines, and trajectory rows — one rendering so goldens and JSONL
// diffs never disagree about trailing digits. Integral values (the exact
// counters baselines gate) print as integers so they round-trip the
// parse→format→parse cycle losslessly; everything the benches emit carries
// at most 4 printed decimals, which %.10g reproduces exactly.
inline std::string format_number(double value) {
  char buffer[64];
  if (value == static_cast<double>(static_cast<long long>(value)) &&
      std::fabs(value) < 9.0e15) {
    std::snprintf(buffer, sizeof buffer, "%lld",
                  static_cast<long long>(value));
  } else {
    std::snprintf(buffer, sizeof buffer, "%.10g", value);
  }
  return buffer;
}

}  // namespace perfkit
