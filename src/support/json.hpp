// Minimal JSON for the line-delimited job protocol (docs/server.md).
//
// Two halves, both dependency-free:
//
//  * JsonValue — a recursive parsed value (null/bool/number/string/array/
//    object). Numbers keep their raw token so 64-bit integers (seeds, cache
//    keys) round-trip without going through a double; object member order
//    is preserved.
//  * JsonWriter — an append-only object/array builder that escapes strings
//    and writes doubles with 17 significant digits (exact IEEE-754 round
//    trip).
//
// The same grammar serves the result cache's results.jsonl lines
// (core/result_cache.cpp), so protocol events and cache records share one
// writer and one parser.
//
// This is deliberately not a general JSON library: no unicode escapes
// beyond pass-through bytes, no comments, numbers are validated by
// std::from_chars. It parses everything JsonWriter emits and everything a
// well-behaved protocol client sends.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace iddq::json {

class JsonValue {
 public:
  enum class Type { Null, Bool, Number, String, Array, Object };

  using Member = std::pair<std::string, JsonValue>;

  JsonValue() = default;

  /// Parses one complete JSON value; trailing non-whitespace fails.
  /// Returns std::nullopt on malformed input.
  [[nodiscard]] static std::optional<JsonValue> parse(std::string_view text);

  [[nodiscard]] Type type() const noexcept { return type_; }
  [[nodiscard]] bool is_null() const noexcept { return type_ == Type::Null; }
  [[nodiscard]] bool is_bool() const noexcept { return type_ == Type::Bool; }
  [[nodiscard]] bool is_number() const noexcept {
    return type_ == Type::Number;
  }
  [[nodiscard]] bool is_string() const noexcept {
    return type_ == Type::String;
  }
  [[nodiscard]] bool is_array() const noexcept { return type_ == Type::Array; }
  [[nodiscard]] bool is_object() const noexcept {
    return type_ == Type::Object;
  }

  [[nodiscard]] bool as_bool() const noexcept { return bool_; }
  [[nodiscard]] const std::string& as_string() const noexcept {
    return string_;
  }
  /// The number's value, or 0.0 when it is not a number or out of range.
  [[nodiscard]] double as_double() const noexcept;
  /// Strict variant: returns false on a non-number or an out-of-range
  /// token instead of substituting 0.0.
  [[nodiscard]] bool as_double(double& out) const noexcept;
  /// Exact for integer tokens up to 2^64-1; returns false on sign,
  /// fraction, exponent, or overflow.
  [[nodiscard]] bool as_u64(std::uint64_t& out) const noexcept;

  [[nodiscard]] const std::vector<JsonValue>& items() const noexcept {
    return array_;
  }
  [[nodiscard]] const std::vector<Member>& members() const noexcept {
    return object_;
  }

  /// First member named `key`, or nullptr (objects only).
  [[nodiscard]] const JsonValue* find(std::string_view key) const noexcept;

  // Typed member lookups with defaults, for flat protocol objects.
  [[nodiscard]] std::string get_string(std::string_view key,
                                       std::string_view fallback = "") const;
  [[nodiscard]] std::uint64_t get_u64(std::string_view key,
                                      std::uint64_t fallback = 0) const;
  [[nodiscard]] double get_double(std::string_view key,
                                  double fallback = 0.0) const;
  [[nodiscard]] bool get_bool(std::string_view key, bool fallback) const;

 private:
  friend class Parser;

  Type type_ = Type::Null;
  bool bool_ = false;
  std::string string_;  // String payload, or the raw Number token
  std::vector<JsonValue> array_;
  std::vector<Member> object_;
};

/// Appends `s` as a quoted JSON string ('"', '\\', and control characters
/// escaped) to `out`.
void append_json_quoted(std::string& out, std::string_view s);

/// One-line JSON object/array builder. Values are emitted in call order;
/// keys are not checked for uniqueness. `raw` splices pre-serialized JSON
/// (e.g. a nested array built by another writer).
class JsonWriter {
 public:
  /// Starts an object ("{") or an array ("[").
  enum class Kind { Object, Array };
  explicit JsonWriter(Kind kind = Kind::Object);

  JsonWriter& field(std::string_view key, std::string_view value);
  JsonWriter& field(std::string_view key, const char* value);
  JsonWriter& field(std::string_view key, double value);
  JsonWriter& field(std::string_view key, std::uint64_t value);
  JsonWriter& field(std::string_view key, bool value);
  JsonWriter& field_raw(std::string_view key, std::string_view json);

  // Array elements.
  JsonWriter& element(std::string_view value);
  JsonWriter& element(double value);
  JsonWriter& element(std::uint64_t value);
  JsonWriter& element_raw(std::string_view json);

  /// Closes the value and returns it; the writer must not be reused.
  [[nodiscard]] std::string str();

 private:
  void comma();
  void key(std::string_view k);

  std::string out_;
  char close_ = '}';
  bool first_ = true;
};

}  // namespace iddq::json
