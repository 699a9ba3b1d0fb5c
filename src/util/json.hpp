// Minimal JSON support: a value tree, a writer, and a recursive-descent
// parser — enough to persist campaign results to disk and load them back
// (no external dependencies are available in this repository's offline
// build environment).
//
// Supported: objects, arrays, strings (with \" \\ \/ \b \f \n \r \t and
// \uXXXX for BMP code points), numbers (as double or int64), booleans,
// null. Not supported: surrogate pairs, duplicate-key detection.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

namespace resilience::util {

class JsonError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Json;
using JsonArray = std::vector<Json>;
using JsonObject = std::map<std::string, Json>;

/// One JSON value. Integers are kept distinct from doubles so that
/// trial counts survive a round trip exactly.
class Json {
 public:
  Json() : value_(nullptr) {}
  Json(std::nullptr_t) : value_(nullptr) {}                 // NOLINT
  Json(bool b) : value_(b) {}                               // NOLINT
  Json(double d) : value_(d) {}                             // NOLINT
  Json(std::int64_t i) : value_(i) {}                       // NOLINT
  Json(int i) : value_(static_cast<std::int64_t>(i)) {}     // NOLINT
  Json(std::uint64_t u) : value_(static_cast<std::int64_t>(u)) {}  // NOLINT
  Json(const char* s) : value_(std::string(s)) {}           // NOLINT
  Json(std::string s) : value_(std::move(s)) {}             // NOLINT
  Json(JsonArray a) : value_(std::move(a)) {}               // NOLINT
  Json(JsonObject o) : value_(std::move(o)) {}              // NOLINT

  [[nodiscard]] bool is_null() const { return holds<std::nullptr_t>(); }
  [[nodiscard]] bool is_bool() const { return holds<bool>(); }
  [[nodiscard]] bool is_int() const { return holds<std::int64_t>(); }
  [[nodiscard]] bool is_double() const { return holds<double>(); }
  [[nodiscard]] bool is_number() const { return is_int() || is_double(); }
  [[nodiscard]] bool is_string() const { return holds<std::string>(); }
  [[nodiscard]] bool is_array() const { return holds<JsonArray>(); }
  [[nodiscard]] bool is_object() const { return holds<JsonObject>(); }

  [[nodiscard]] bool as_bool() const { return get<bool>("bool"); }
  /// An integer; a double truncates toward zero. An integer literal too
  /// large for int64 parses as a double, so a double outside
  /// [-2^63, 2^63) (or not finite) throws JsonError instead of casting.
  [[nodiscard]] std::int64_t as_int() const {
    if (is_double()) {
      const double d = std::get<double>(value_);
      if (!(d >= -0x1p63 && d < 0x1p63)) {
        throw JsonError(dump() + " is out of int64 range");
      }
      return static_cast<std::int64_t>(d);
    }
    return get<std::int64_t>("int");
  }
  [[nodiscard]] double as_double() const {
    if (is_int()) return static_cast<double>(std::get<std::int64_t>(value_));
    return get<double>("double");
  }
  [[nodiscard]] const std::string& as_string() const {
    return get<std::string>("string");
  }
  [[nodiscard]] const JsonArray& as_array() const {
    return get<JsonArray>("array");
  }
  [[nodiscard]] const JsonObject& as_object() const {
    return get<JsonObject>("object");
  }

  /// An enumerator of `Enum` stored as its integer value; throws
  /// JsonError naming `field` unless it lies in [0, last].
  template <typename Enum>
  [[nodiscard]] Enum as_enum(Enum last, const char* field) const {
    const std::int64_t raw = as_int();
    if (raw < 0 || raw > static_cast<std::int64_t>(last)) {
      throw JsonError(std::string(field) + " " + std::to_string(raw) +
                      " out of range");
    }
    return static_cast<Enum>(raw);
  }

  /// Object member access; throws JsonError when absent or not an object.
  [[nodiscard]] const Json& at(const std::string& key) const {
    const auto& obj = as_object();
    const auto it = obj.find(key);
    if (it == obj.end()) throw JsonError("missing key: " + key);
    return it->second;
  }

  /// Serialize; `indent` > 0 pretty-prints with that many spaces.
  [[nodiscard]] std::string dump(int indent = 0) const;

  /// Deepest array/object nesting parse() accepts: saved campaigns nest 4
  /// deep, and the cap keeps hostile input from overflowing the stack of
  /// the recursive-descent parser.
  static constexpr int kMaxDepth = 64;

  /// Parse a complete JSON document; throws JsonError on malformed input,
  /// trailing garbage, or nesting deeper than kMaxDepth.
  static Json parse(const std::string& text);

 private:
  template <typename T>
  [[nodiscard]] bool holds() const {
    return std::holds_alternative<T>(value_);
  }
  template <typename T>
  [[nodiscard]] const T& get(const char* what) const {
    if (!holds<T>()) throw JsonError(std::string("not a ") + what);
    return std::get<T>(value_);
  }

  std::variant<std::nullptr_t, bool, std::int64_t, double, std::string,
               JsonArray, JsonObject>
      value_;
};

}  // namespace resilience::util
