#include "obs/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>

#include "common/check.h"

namespace scale::obs {

Json::Json(std::uint64_t v) {
  SCALE_CHECK_MSG(v <= static_cast<std::uint64_t>(
                           std::numeric_limits<std::int64_t>::max()),
                  "counter too large for JSON int");
  value_ = static_cast<std::int64_t>(v);
}

Json::Json(double v) : value_(v) {}

Json::Type Json::type() const {
  switch (value_.index()) {
    case 0: return Type::kNull;
    case 1: return Type::kBool;
    case 2: return Type::kInt;
    case 3: return Type::kDouble;
    case 4: return Type::kString;
    case 5: return Type::kArray;
    default: return Type::kObject;
  }
}

std::int64_t Json::as_int() const {
  SCALE_CHECK(type() == Type::kInt);
  return std::get<std::int64_t>(value_);
}

double Json::as_double() const {
  if (type() == Type::kInt)
    return static_cast<double>(std::get<std::int64_t>(value_));
  SCALE_CHECK(type() == Type::kDouble);
  return std::get<double>(value_);
}

const std::string& Json::as_string() const {
  SCALE_CHECK(is_string());
  return std::get<std::string>(value_);
}

const Json::Array& Json::elements() const {
  SCALE_CHECK(is_array());
  return std::get<Array>(value_);
}

const Json::Object& Json::members() const {
  SCALE_CHECK(is_object());
  return std::get<Object>(value_);
}

void Json::push_back(Json v) {
  SCALE_CHECK_MSG(is_array(), "push_back on non-array Json");
  std::get<Array>(value_).push_back(std::move(v));
}

Json& Json::set(std::string key, Json v) {
  SCALE_CHECK_MSG(is_object(), "set on non-object Json");
  auto& obj = std::get<Object>(value_);
  for (auto& [k, existing] : obj) {
    if (k == key) {
      existing = std::move(v);
      return *this;
    }
  }
  obj.emplace_back(std::move(key), std::move(v));
  return *this;
}

const Json* Json::find(std::string_view key) const {
  if (!is_object()) return nullptr;
  for (const auto& [k, v] : std::get<Object>(value_)) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::size_t Json::size() const {
  if (is_array()) return std::get<Array>(value_).size();
  if (is_object()) return std::get<Object>(value_).size();
  return 0;
}

namespace {

/// Escape a string for embedding in JSON (adds no surrounding quotes).
std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Render a double: shortest round-trip via to_chars; NaN / Inf map to
/// "null".
std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  SCALE_CHECK(res.ec == std::errc());
  return std::string(buf, res.ptr);
}

}  // namespace

void Json::write(std::string& out, int indent, int depth) const {
  const bool pretty_mode = indent > 0;
  const auto newline_pad = [&](int d) {
    if (!pretty_mode) return;
    out += '\n';
    out.append(static_cast<std::size_t>(indent * d), ' ');
  };
  switch (type()) {
    case Type::kNull:
      out += "null";
      break;
    case Type::kBool:
      out += std::get<bool>(value_) ? "true" : "false";
      break;
    case Type::kInt:
      out += std::to_string(std::get<std::int64_t>(value_));
      break;
    case Type::kDouble:
      out += json_number(std::get<double>(value_));
      break;
    case Type::kString:
      out += '"';
      out += json_escape(std::get<std::string>(value_));
      out += '"';
      break;
    case Type::kArray: {
      const auto& arr = std::get<Array>(value_);
      if (arr.empty()) {
        out += "[]";
        break;
      }
      out += '[';
      for (std::size_t i = 0; i < arr.size(); ++i) {
        if (i) out += ',';
        newline_pad(depth + 1);
        arr[i].write(out, indent, depth + 1);
      }
      newline_pad(depth);
      out += ']';
      break;
    }
    case Type::kObject: {
      const auto& obj = std::get<Object>(value_);
      if (obj.empty()) {
        out += "{}";
        break;
      }
      out += '{';
      for (std::size_t i = 0; i < obj.size(); ++i) {
        if (i) out += ',';
        newline_pad(depth + 1);
        out += '"';
        out += json_escape(obj[i].first);
        out += "\":";
        if (pretty_mode) out += ' ';
        obj[i].second.write(out, indent, depth + 1);
      }
      newline_pad(depth);
      out += '}';
      break;
    }
  }
}

std::string Json::dump() const {
  std::string out;
  write(out, 0, 0);
  return out;
}

std::string Json::pretty() const {
  std::string out;
  write(out, 2, 0);
  out += '\n';
  return out;
}

namespace {

// Recursive-descent parser over a string_view cursor.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::optional<Json> run(std::string* error) {
    auto v = value();
    skip_ws();
    if (v && pos_ != text_.size()) {
      fail("trailing characters after document");
      v.reset();
    }
    if (!v && error) *error = error_;
    return v;
  }

 private:
  void fail(const std::string& why) {
    if (error_.empty())
      error_ = why + " at offset " + std::to_string(pos_);
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  std::optional<Json> value() {
    skip_ws();
    if (pos_ >= text_.size()) {
      fail("unexpected end of input");
      return std::nullopt;
    }
    const char c = text_[pos_];
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') {
      auto s = string();
      if (!s) return std::nullopt;
      return Json(std::move(*s));
    }
    if (literal("null")) return Json(nullptr);
    if (literal("true")) return Json(true);
    if (literal("false")) return Json(false);
    return number();
  }

  std::optional<Json> number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    bool is_double = false;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c >= '0' && c <= '9') {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        is_double = true;
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) {
      fail("expected a value");
      return std::nullopt;
    }
    const std::string_view tok = text_.substr(start, pos_ - start);
    if (!is_double) {
      std::int64_t iv = 0;
      const auto res = std::from_chars(tok.begin(), tok.end(), iv);
      if (res.ec == std::errc() && res.ptr == tok.end()) return Json(iv);
    }
    double dv = 0.0;
    const auto res = std::from_chars(tok.begin(), tok.end(), dv);
    if (res.ec != std::errc() || res.ptr != tok.end()) {
      fail("malformed number");
      return std::nullopt;
    }
    return Json(dv);
  }

  std::optional<std::string> string() {
    if (!consume('"')) {
      fail("expected '\"'");
      return std::nullopt;
    }
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            fail("truncated \\u escape");
            return std::nullopt;
          }
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            cp <<= 4;
            if (h >= '0' && h <= '9') {
              cp |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              cp |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              cp |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("bad hex digit in \\u escape");
              return std::nullopt;
            }
          }
          // Basic-plane code point to UTF-8 (we never emit surrogates).
          if (cp < 0x80) {
            out += static_cast<char>(cp);
          } else if (cp < 0x800) {
            out += static_cast<char>(0xC0u | (cp >> 6));
            out += static_cast<char>(0x80u | (cp & 0x3Fu));
          } else {
            out += static_cast<char>(0xE0u | (cp >> 12));
            out += static_cast<char>(0x80u | ((cp >> 6) & 0x3Fu));
            out += static_cast<char>(0x80u | (cp & 0x3Fu));
          }
          break;
        }
        default:
          fail("unknown escape");
          return std::nullopt;
      }
    }
    fail("unterminated string");
    return std::nullopt;
  }

  std::optional<Json> array() {
    if (!consume('[')) {
      fail("expected '['");
      return std::nullopt;
    }
    Json out = Json::array();
    skip_ws();
    if (consume(']')) return out;
    while (true) {
      auto v = value();
      if (!v) return std::nullopt;
      out.push_back(std::move(*v));
      if (consume(',')) continue;
      if (consume(']')) return out;
      fail("expected ',' or ']'");
      return std::nullopt;
    }
  }

  std::optional<Json> object() {
    if (!consume('{')) {
      fail("expected '{'");
      return std::nullopt;
    }
    Json out = Json::object();
    skip_ws();
    if (consume('}')) return out;
    while (true) {
      skip_ws();
      auto key = string();
      if (!key) return std::nullopt;
      if (!consume(':')) {
        fail("expected ':'");
        return std::nullopt;
      }
      auto v = value();
      if (!v) return std::nullopt;
      out.set(std::move(*key), std::move(*v));
      if (consume(',')) continue;
      if (consume('}')) return out;
      fail("expected ',' or '}'");
      return std::nullopt;
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string error_;
};

}  // namespace

std::optional<Json> Json::parse(std::string_view text, std::string* error) {
  return Parser(text).run(error);
}

}  // namespace scale::obs
