// Minimal JSON value tree for observability output — no external deps.
//
// Design constraints (they are what make this file exist instead of a
// third-party library):
//   * Deterministic serialization: object members keep insertion order,
//     doubles render via std::to_chars (shortest round-trip form), so two
//     same-seed simulation runs dump byte-identical documents.
//   * NaN / Inf have no JSON representation; they serialize as null. This
//     is how "no samples" percentiles surface in BENCH_*.json files.
//   * A small parser is included so the in-tree schema checker and tests
//     can read documents back; it accepts exactly the JSON we emit plus
//     ordinary interchange JSON (RFC 8259 subset, basic-plane \u escapes).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace scale::obs {

class Json {
 public:
  enum class Type : std::uint8_t {
    kNull,
    kBool,
    kInt,
    kDouble,
    kString,
    kArray,
    kObject,
  };

  using Array = std::vector<Json>;
  /// Object members preserve insertion order (determinism; schema reads
  /// nicer with "schema" first). Lookup is linear — documents are small.
  using Member = std::pair<std::string, Json>;
  using Object = std::vector<Member>;

  Json() : value_(nullptr) {}
  Json(std::nullptr_t) : value_(nullptr) {}  // NOLINT(google-explicit-constructor)
  Json(bool b) : value_(b) {}                // NOLINT(google-explicit-constructor)
  Json(int v) : value_(static_cast<std::int64_t>(v)) {}       // NOLINT
  Json(unsigned v) : value_(static_cast<std::int64_t>(v)) {}  // NOLINT
  Json(std::int64_t v) : value_(v) {}                         // NOLINT
  Json(std::uint64_t v);                                      // NOLINT
  Json(double v);                                             // NOLINT
  Json(const char* s) : value_(std::string(s)) {}             // NOLINT
  Json(std::string s) : value_(std::move(s)) {}               // NOLINT
  Json(std::string_view s) : value_(std::string(s)) {}        // NOLINT

  static Json array() { return Json(Array{}); }
  static Json object() { return Json(Object{}); }

  Type type() const;
  bool is_null() const { return type() == Type::kNull; }
  bool is_number() const {
    return type() == Type::kInt || type() == Type::kDouble;
  }
  bool is_string() const { return type() == Type::kString; }
  bool is_array() const { return type() == Type::kArray; }
  bool is_object() const { return type() == Type::kObject; }

  std::int64_t as_int() const;
  /// Numeric value widened to double (kInt or kDouble).
  double as_double() const;
  const std::string& as_string() const;
  const Array& elements() const;
  const Object& members() const;

  /// Array append. The value must already be an array.
  void push_back(Json v);
  /// Object member set: replaces an existing key in place, else appends.
  /// The value must already be an object.
  Json& set(std::string key, Json v);
  /// Object member lookup; nullptr when absent (or not an object).
  const Json* find(std::string_view key) const;

  std::size_t size() const;

  /// Compact serialization (no whitespace). Deterministic.
  [[nodiscard]] std::string dump() const;
  /// Pretty serialization with two-space indent. Deterministic.
  [[nodiscard]] std::string pretty() const;

  /// Parse a document; nullopt on malformed input (diagnostic in *error).
  [[nodiscard]] static std::optional<Json> parse(std::string_view text,
                                                 std::string* error = nullptr);

  friend bool operator==(const Json& a, const Json& b) {
    return a.value_ == b.value_;
  }

 private:
  explicit Json(Array a) : value_(std::move(a)) {}
  explicit Json(Object o) : value_(std::move(o)) {}

  void write(std::string& out, int indent, int depth) const;

  std::variant<std::nullptr_t, bool, std::int64_t, double, std::string, Array,
               Object>
      value_;
};

}  // namespace scale::obs
