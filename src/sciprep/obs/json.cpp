#include "sciprep/obs/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace sciprep::obs {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  // Shortest text that strtod reads back as the same double: at most 24
  // characters ("-2.2250738585072014e-308").
  char buf[32];
  const auto end = std::to_chars(buf, buf + sizeof(buf), v).ptr;
  return {buf, end};
}

/// Recursive-descent RFC 8259 parser over a string_view cursor; `depth`
/// counts the arrays/objects enclosing the value being parsed.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  bool parse(JsonValue& out) {
    skip_ws();
    if (!parse_value(out, 0)) return false;
    skip_ws();
    return pos_ == text_.size();  // no trailing garbage
  }

 private:
  using Kind = JsonValue::Kind;

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  [[nodiscard]] bool eat(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  [[nodiscard]] bool eat_word(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  [[nodiscard]] bool eat_digits() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      ++pos_;
    }
    return pos_ > start;
  }

  bool parse_value(JsonValue& out, int depth) {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{':
        return depth < kJsonMaxDepth && parse_object(out, depth + 1);
      case '[':
        return depth < kJsonMaxDepth && parse_array(out, depth + 1);
      case '"':
        out.kind_ = Kind::kString;
        return parse_string(out.string_);
      case 't':
      case 'f':
        out.kind_ = Kind::kBool;
        out.bool_ = text_[pos_] == 't';
        return eat_word(out.bool_ ? "true" : "false");
      case 'n':
        out.kind_ = Kind::kNull;
        return eat_word("null");
      default:
        return parse_number(out);
    }
  }

  bool parse_object(JsonValue& out, int depth) {
    ++pos_;  // '{'
    out.kind_ = Kind::kObject;
    skip_ws();
    if (eat('}')) return true;
    while (true) {
      skip_ws();
      std::string key;
      if (!parse_string(key)) return false;
      skip_ws();
      if (!eat(':')) return false;
      skip_ws();
      JsonValue value;
      if (!parse_value(value, depth)) return false;
      out.object_.insert_or_assign(std::move(key), std::move(value));
      skip_ws();
      if (eat(',')) continue;
      return eat('}');
    }
  }

  bool parse_array(JsonValue& out, int depth) {
    ++pos_;  // '['
    out.kind_ = Kind::kArray;
    skip_ws();
    if (eat(']')) return true;
    while (true) {
      skip_ws();
      JsonValue value;
      if (!parse_value(value, depth)) return false;
      out.array_.push_back(std::move(value));
      skip_ws();
      if (eat(',')) continue;
      return eat(']');
    }
  }

  bool parse_string(std::string& out) {
    if (!eat('"')) return false;
    out.clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return false;
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
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            if (pos_ >= text_.size()) return false;
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return false;
            }
          }
          // UTF-8 encode the BMP code point (surrogate pairs are stored as
          // two 3-byte sequences — good enough for metric names and paths).
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
        default:
          return false;
      }
    }
    return false;  // unterminated
  }

  bool parse_number(JsonValue& out) {
    const std::size_t start = pos_;
    (void)eat('-');
    if (!eat('0') && !eat_digits()) return false;  // a leading 0 stands alone
    if (eat('.') && !eat_digits()) return false;
    if (eat('e') || eat('E')) {
      if (!eat('+')) (void)eat('-');
      if (!eat_digits()) return false;
    }
    const std::string token(text_.substr(start, pos_ - start));
    out.kind_ = Kind::kNumber;
    out.number_ = std::strtod(token.c_str(), nullptr);
    return true;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

namespace {

const JsonValue& null_value() {
  static const JsonValue v;
  return v;
}

}  // namespace

bool JsonValue::as_bool(bool fallback) const noexcept {
  return kind_ == Kind::kBool ? bool_ : fallback;
}

double JsonValue::as_number(double fallback) const noexcept {
  return kind_ == Kind::kNumber ? number_ : fallback;
}

// Wrong-kind access to a container or string sees the (empty) member of
// whatever value it was called on.
const std::string& JsonValue::as_string() const noexcept {
  return kind_ == Kind::kString ? string_ : null_value().string_;
}

const std::vector<JsonValue>& JsonValue::as_array() const noexcept {
  return kind_ == Kind::kArray ? array_ : null_value().array_;
}

const std::map<std::string, JsonValue>& JsonValue::as_object() const noexcept {
  return kind_ == Kind::kObject ? object_ : null_value().object_;
}

const JsonValue& JsonValue::at(const std::string& key) const noexcept {
  if (kind_ != Kind::kObject) return null_value();
  const auto it = object_.find(key);
  return it != object_.end() ? it->second : null_value();
}

bool JsonValue::has(const std::string& key) const noexcept {
  return kind_ == Kind::kObject && object_.find(key) != object_.end();
}

double JsonValue::number_or(const std::string& key,
                            double fallback) const noexcept {
  return at(key).as_number(fallback);
}

std::string JsonValue::string_or(const std::string& key,
                                 const std::string& fallback) const {
  const JsonValue& v = at(key);
  return v.kind() == Kind::kString ? v.as_string() : fallback;
}

bool json_parse(std::string_view text, JsonValue& out) {
  out = JsonValue();
  return JsonParser(text).parse(out);
}

bool json_valid(std::string_view text) {
  JsonValue doc;
  return json_parse(text, doc);
}

}  // namespace sciprep::obs
