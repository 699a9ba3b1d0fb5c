#include "util/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace resilience::util {

namespace {

void dump_string(std::ostringstream& os, const std::string& s) {
  os << '"';
  for (char raw : s) {
    const auto c = static_cast<unsigned char>(raw);
    switch (c) {
      case '"':
        os << "\\\"";
        break;
      case '\\':
        os << "\\\\";
        break;
      case '\b':
        os << "\\b";
        break;
      case '\f':
        os << "\\f";
        break;
      case '\n':
        os << "\\n";
        break;
      case '\r':
        os << "\\r";
        break;
      case '\t':
        os << "\\t";
        break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          os << buf;
        } else {
          os << raw;
        }
    }
  }
  os << '"';
}

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Json parse_document() {
    Json value = parse_value(0);
    skip_whitespace();
    if (pos_ != text_.size()) throw JsonError("trailing garbage");
    return value;
  }

 private:
  void skip_whitespace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  char peek() {
    skip_whitespace();
    if (pos_ >= text_.size()) throw JsonError("unexpected end of input");
    return text_[pos_];
  }

  char take() {
    const char c = peek();
    ++pos_;
    return c;
  }

  void expect(char c) {
    if (take() != c) {
      throw JsonError(std::string("expected '") + c + "' at offset " +
                      std::to_string(pos_ - 1));
    }
  }

  bool consume_literal(const char* lit) {
    const std::size_t len = std::char_traits<char>::length(lit);
    if (text_.compare(pos_, len, lit) == 0) {
      pos_ += len;
      return true;
    }
    return false;
  }

  /// `depth` counts the arrays/objects enclosing this value.
  Json parse_value(int depth) {
    const char c = peek();
    if ((c == '{' || c == '[') && depth == Json::kMaxDepth) {
      throw JsonError("nesting deeper than " +
                      std::to_string(Json::kMaxDepth) + " levels");
    }
    switch (c) {
      case '{':
        return parse_object(depth + 1);
      case '[':
        return parse_array(depth + 1);
      case '"':
        return Json(parse_string());
      case 't':
        if (consume_literal("true")) return Json(true);
        throw JsonError("bad literal");
      case 'f':
        if (consume_literal("false")) return Json(false);
        throw JsonError("bad literal");
      case 'n':
        if (consume_literal("null")) return Json(nullptr);
        throw JsonError("bad literal");
      default:
        return parse_number();
    }
  }

  Json parse_object(int depth) {
    expect('{');
    JsonObject obj;
    if (peek() == '}') {
      ++pos_;
      return Json(std::move(obj));
    }
    for (;;) {
      const std::string key = (peek(), parse_string());
      expect(':');
      obj.emplace(key, parse_value(depth));
      const char c = take();
      if (c == '}') return Json(std::move(obj));
      if (c != ',') throw JsonError("expected ',' or '}' in object");
    }
  }

  Json parse_array(int depth) {
    expect('[');
    JsonArray arr;
    if (peek() == ']') {
      ++pos_;
      return Json(std::move(arr));
    }
    for (;;) {
      arr.push_back(parse_value(depth));
      const char c = take();
      if (c == ']') return Json(std::move(arr));
      if (c != ',') throw JsonError("expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) throw JsonError("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) throw JsonError("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case '/':
          out += '/';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'n':
          out += '\n';
          break;
        case 'r':
          out += '\r';
          break;
        case 't':
          out += '\t';
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) throw JsonError("bad \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              throw JsonError("bad hex digit in \\u escape");
            }
          }
          // UTF-8 encode the BMP code point.
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          throw JsonError("unknown escape");
      }
    }
  }

  Json parse_number() {
    skip_whitespace();
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    bool is_floating = false;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        is_floating = is_floating || c == '.' || c == 'e' || c == 'E';
        ++pos_;
      } else {
        break;
      }
    }
    const std::string token = text_.substr(start, pos_ - start);
    if (token.empty() || token == "-") throw JsonError("bad number");
    if (!is_floating) {
      std::int64_t value = 0;
      const auto [ptr, ec] =
          std::from_chars(token.data(), token.data() + token.size(), value);
      if (ec == std::errc() && ptr == token.data() + token.size()) {
        return Json(value);
      }
    }
    try {
      return Json(std::stod(token));
    } catch (const std::exception&) {
      throw JsonError("bad number: " + token);
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

void dump_impl(const Json& value, std::ostringstream& os, int indent,
               int depth);

void dump_children(const JsonArray& arr, std::ostringstream& os, int indent,
                   int depth) {
  const std::string pad(static_cast<std::size_t>(indent) * (depth + 1), ' ');
  const std::string close_pad(static_cast<std::size_t>(indent) * depth, ' ');
  os << '[';
  bool first = true;
  for (const auto& item : arr) {
    if (!first) os << ',';
    first = false;
    if (indent > 0) os << '\n' << pad;
    dump_impl(item, os, indent, depth + 1);
  }
  if (indent > 0 && !arr.empty()) os << '\n' << close_pad;
  os << ']';
}

void dump_children(const JsonObject& obj, std::ostringstream& os, int indent,
                   int depth) {
  const std::string pad(static_cast<std::size_t>(indent) * (depth + 1), ' ');
  const std::string close_pad(static_cast<std::size_t>(indent) * depth, ' ');
  os << '{';
  bool first = true;
  for (const auto& [key, item] : obj) {
    if (!first) os << ',';
    first = false;
    if (indent > 0) os << '\n' << pad;
    dump_string(os, key);
    os << ':';
    if (indent > 0) os << ' ';
    dump_impl(item, os, indent, depth + 1);
  }
  if (indent > 0 && !obj.empty()) os << '\n' << close_pad;
  os << '}';
}

void dump_impl(const Json& value, std::ostringstream& os, int indent,
               int depth) {
  if (value.is_null()) {
    os << "null";
  } else if (value.is_bool()) {
    os << (value.as_bool() ? "true" : "false");
  } else if (value.is_int()) {
    os << value.as_int();
  } else if (value.is_double()) {
    const double d = value.as_double();
    if (!std::isfinite(d)) {
      os << "null";  // JSON has no Inf/NaN; campaigns never store them
    } else {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.17g", d);
      os << buf;
    }
  } else if (value.is_string()) {
    dump_string(os, value.as_string());
  } else if (value.is_array()) {
    dump_children(value.as_array(), os, indent, depth);
  } else {
    dump_children(value.as_object(), os, indent, depth);
  }
}

}  // namespace

std::string Json::dump(int indent) const {
  std::ostringstream os;
  dump_impl(*this, os, indent, 0);
  return os.str();
}

Json Json::parse(const std::string& text) {
  return Parser(text).parse_document();
}

}  // namespace resilience::util
