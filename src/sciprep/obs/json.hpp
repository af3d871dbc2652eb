// Tiny JSON utilities for the observability layer: string escaping for the
// writers, number formatting that never emits invalid tokens (NaN/inf become
// null), and the one strict reader every consumer shares — trace smoke tests,
// `trainer --validate`, and the fleet series reader. The reader builds a
// small DOM: doubles for every number (perf metrics and counters fit
// comfortably), ordered maps for objects. Writers keep using sciprep::fmt.
#pragma once

#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace sciprep::obs {

/// Escape `s` for inclusion inside a JSON string literal (no quotes added).
std::string json_escape(std::string_view s);

/// Format a double as a JSON value: "null" for NaN/inf, shortest-ish %.12g
/// otherwise.
std::string json_number(double v);

/// Deepest nesting of arrays/objects json_parse() accepts.
inline constexpr int kJsonMaxDepth = 64;

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  [[nodiscard]] bool is_null() const noexcept { return kind_ == Kind::kNull; }
  [[nodiscard]] bool is_object() const noexcept {
    return kind_ == Kind::kObject;
  }
  [[nodiscard]] bool is_array() const noexcept { return kind_ == Kind::kArray; }

  /// Typed accessors; wrong-kind access returns the fallback (parsers of
  /// foreign files must degrade, not crash).
  [[nodiscard]] bool as_bool(bool fallback = false) const noexcept;
  [[nodiscard]] double as_number(double fallback = 0.0) const noexcept;
  [[nodiscard]] const std::string& as_string() const noexcept;
  [[nodiscard]] const std::vector<JsonValue>& as_array() const noexcept;
  [[nodiscard]] const std::map<std::string, JsonValue>& as_object()
      const noexcept;

  /// Object member lookup; returns a shared null value when absent or when
  /// this value is not an object.
  [[nodiscard]] const JsonValue& at(const std::string& key) const noexcept;
  [[nodiscard]] bool has(const std::string& key) const noexcept;

  /// Convenience: `at(key).as_*` with fallbacks.
  [[nodiscard]] double number_or(const std::string& key,
                                 double fallback) const noexcept;
  [[nodiscard]] std::string string_or(const std::string& key,
                                      const std::string& fallback) const;

 private:
  friend class JsonParser;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::map<std::string, JsonValue> object_;
};

/// Parse a complete JSON document (RFC 8259 grammar, nesting limited to
/// kJsonMaxDepth). Returns false on any syntax error or trailing garbage;
/// `out` is unspecified on failure. Never throws.
[[nodiscard]] bool json_parse(std::string_view text, JsonValue& out);

/// Strict whole-document validity check: json_parse() without the result.
[[nodiscard]] bool json_valid(std::string_view text);

}  // namespace sciprep::obs
