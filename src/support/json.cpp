#include "support/json.hpp"

#include <charconv>
#include <cstdio>

namespace iddq::json {

namespace {

bool is_ws(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\n';
}

// 17 significant digits round-trip any finite IEEE-754 double exactly.
void append_double_17g(std::string& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

}  // namespace

class Parser {
 public:
  explicit Parser(std::string_view s) : s_(s) {}

  [[nodiscard]] bool parse_document(JsonValue& out) {
    if (!parse_value(out, 0)) return false;
    skip_ws();
    return i_ == s_.size();
  }

 private:
  static constexpr int kMaxDepth = 64;

  void skip_ws() {
    while (i_ < s_.size() && is_ws(s_[i_])) ++i_;
  }

  [[nodiscard]] bool consume(char c) {
    skip_ws();
    if (i_ >= s_.size() || s_[i_] != c) return false;
    ++i_;
    return true;
  }

  [[nodiscard]] bool peek(char c) {
    skip_ws();
    return i_ < s_.size() && s_[i_] == c;
  }

  [[nodiscard]] bool consume_literal(std::string_view lit) {
    if (s_.substr(i_, lit.size()) != lit) return false;
    i_ += lit.size();
    return true;
  }

  [[nodiscard]] bool parse_string_payload(std::string& out) {
    if (!consume('"')) return false;
    out.clear();
    while (i_ < s_.size() && s_[i_] != '"') {
      char c = s_[i_++];
      if (c == '\\') {
        if (i_ >= s_.size()) return false;
        c = s_[i_++];
        switch (c) {
          case '"': case '\\': case '/': break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          case 'n': c = '\n'; break;
          case 'r': c = '\r'; break;
          case 't': c = '\t'; break;
          case 'u': {
            // Only the single-byte range (what append_json_quoted emits
            // for control characters); no surrogate pairs by design.
            if (i_ + 4 > s_.size()) return false;
            unsigned value = 0;
            for (int d = 0; d < 4; ++d) {
              const char h = s_[i_++];
              value <<= 4;
              if (h >= '0' && h <= '9') value |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f')
                value |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F')
                value |= static_cast<unsigned>(h - 'A' + 10);
              else
                return false;
            }
            if (value > 0xFF) return false;
            c = static_cast<char>(value);
            break;
          }
          default: return false;
        }
      }
      out += c;
    }
    return i_ < s_.size() && s_[i_++] == '"';
  }

  [[nodiscard]] bool parse_number_token(std::string& out) {
    const std::size_t start = i_;
    if (i_ < s_.size() && s_[i_] == '-') ++i_;
    const auto digits = [&] {
      const std::size_t from = i_;
      while (i_ < s_.size() && s_[i_] >= '0' && s_[i_] <= '9') ++i_;
      return i_ > from;
    };
    if (!digits()) return false;
    if (i_ < s_.size() && s_[i_] == '.') {
      ++i_;
      if (!digits()) return false;
    }
    if (i_ < s_.size() && (s_[i_] == 'e' || s_[i_] == 'E')) {
      ++i_;
      if (i_ < s_.size() && (s_[i_] == '+' || s_[i_] == '-')) ++i_;
      if (!digits()) return false;
    }
    out.assign(s_.substr(start, i_ - start));
    return true;
  }

  [[nodiscard]] bool parse_value(JsonValue& out, int depth) {
    if (depth > kMaxDepth) return false;
    skip_ws();
    if (i_ >= s_.size()) return false;
    const char c = s_[i_];
    if (c == '{') {
      ++i_;
      out.type_ = JsonValue::Type::Object;
      if (consume('}')) return true;
      while (true) {
        // Members and elements are parsed in place: no per-value move.
        auto& [name, value] = out.object_.emplace_back();
        skip_ws();
        if (!parse_string_payload(name) || !consume(':')) return false;
        if (!parse_value(value, depth + 1)) return false;
        if (consume(',')) continue;
        return consume('}');
      }
    }
    if (c == '[') {
      ++i_;
      out.type_ = JsonValue::Type::Array;
      if (consume(']')) return true;
      while (true) {
        if (!parse_value(out.array_.emplace_back(), depth + 1)) return false;
        if (consume(',')) continue;
        return consume(']');
      }
    }
    if (c == '"') {
      out.type_ = JsonValue::Type::String;
      return parse_string_payload(out.string_);
    }
    if (c == 't') {
      out.type_ = JsonValue::Type::Bool;
      out.bool_ = true;
      return consume_literal("true");
    }
    if (c == 'f') {
      out.type_ = JsonValue::Type::Bool;
      out.bool_ = false;
      return consume_literal("false");
    }
    if (c == 'n') {
      out.type_ = JsonValue::Type::Null;
      return consume_literal("null");
    }
    out.type_ = JsonValue::Type::Number;
    return parse_number_token(out.string_);
  }

  std::string_view s_;
  std::size_t i_ = 0;
};

std::optional<JsonValue> JsonValue::parse(std::string_view text) {
  JsonValue value;
  Parser parser(text);
  if (!parser.parse_document(value)) return std::nullopt;
  return value;
}

double JsonValue::as_double() const noexcept {
  double v = 0.0;
  return as_double(v) ? v : 0.0;
}

bool JsonValue::as_double(double& out) const noexcept {
  if (type_ != Type::Number) return false;
  const auto [ptr, ec] =
      std::from_chars(string_.data(), string_.data() + string_.size(), out);
  return ec == std::errc{} && ptr == string_.data() + string_.size();
}

bool JsonValue::as_u64(std::uint64_t& out) const noexcept {
  if (type_ != Type::Number) return false;
  const auto [ptr, ec] =
      std::from_chars(string_.data(), string_.data() + string_.size(), out);
  return ec == std::errc{} && ptr == string_.data() + string_.size();
}

const JsonValue* JsonValue::find(std::string_view key) const noexcept {
  for (const auto& [name, value] : object_)
    if (name == key) return &value;
  return nullptr;
}

std::string JsonValue::get_string(std::string_view key,
                                  std::string_view fallback) const {
  const JsonValue* v = find(key);
  return v != nullptr && v->is_string() ? v->as_string()
                                        : std::string(fallback);
}

std::uint64_t JsonValue::get_u64(std::string_view key,
                                 std::uint64_t fallback) const {
  const JsonValue* v = find(key);
  std::uint64_t out = 0;
  return v != nullptr && v->as_u64(out) ? out : fallback;
}

double JsonValue::get_double(std::string_view key, double fallback) const {
  const JsonValue* v = find(key);
  return v != nullptr && v->is_number() ? v->as_double() : fallback;
}

bool JsonValue::get_bool(std::string_view key, bool fallback) const {
  const JsonValue* v = find(key);
  return v != nullptr && v->is_bool() ? v->as_bool() : fallback;
}

void append_json_quoted(std::string& out, std::string_view s) {
  out += '"';
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
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

JsonWriter::JsonWriter(Kind kind) {
  out_ += kind == Kind::Object ? '{' : '[';
  close_ = kind == Kind::Object ? '}' : ']';
}

void JsonWriter::comma() {
  if (!first_) out_ += ',';
  first_ = false;
}

void JsonWriter::key(std::string_view k) {
  comma();
  append_json_quoted(out_, k);
  out_ += ':';
}

JsonWriter& JsonWriter::field(std::string_view k, std::string_view value) {
  key(k);
  append_json_quoted(out_, value);
  return *this;
}

JsonWriter& JsonWriter::field(std::string_view k, const char* value) {
  return field(k, std::string_view(value));
}

JsonWriter& JsonWriter::field(std::string_view k, double value) {
  key(k);
  append_double_17g(out_, value);
  return *this;
}

JsonWriter& JsonWriter::field(std::string_view k, std::uint64_t value) {
  key(k);
  out_ += std::to_string(value);
  return *this;
}

JsonWriter& JsonWriter::field(std::string_view k, bool value) {
  key(k);
  out_ += value ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::field_raw(std::string_view k, std::string_view v) {
  key(k);
  out_ += v;
  return *this;
}

JsonWriter& JsonWriter::element(std::string_view value) {
  comma();
  append_json_quoted(out_, value);
  return *this;
}

JsonWriter& JsonWriter::element(double value) {
  comma();
  append_double_17g(out_, value);
  return *this;
}

JsonWriter& JsonWriter::element(std::uint64_t value) {
  comma();
  out_ += std::to_string(value);
  return *this;
}

JsonWriter& JsonWriter::element_raw(std::string_view json) {
  comma();
  out_ += json;
  return *this;
}

std::string JsonWriter::str() {
  out_ += close_;
  return std::move(out_);
}

}  // namespace iddq::json
