// Minimal `{}`-placeholder string formatting.
//
// The toolchain this library targets (GCC 12) predates std::format in
// libstdc++, so sciprep carries its own small formatter. Supported syntax is
// the std::format subset the library uses:
//   {}         default conversion
//   {:.3f}     fixed-point with precision (also e / g)
//   {:8}       minimum width, right-aligned
//   {:<8}      minimum width, left-aligned
//   {:08x}     minimum width, right-aligned, zero-filled (after any sign)
//   {:8.2f}    width + precision
//   {:x}       hexadecimal integers
// Arguments are consumed left to right; excess/missing arguments throw.
#pragma once

#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>

namespace sciprep {

namespace fmt_detail {

struct Spec {
  int width = 0;
  int precision = -1;
  char type = 0;        // 0, 'f', 'e', 'g', 'x', 'd'
  bool left_align = false;
  bool zero_fill = false;
};

inline Spec parse_spec(std::string_view s) {
  Spec spec;
  std::size_t i = 0;
  if (i < s.size() && (s[i] == '<' || s[i] == '>')) {
    spec.left_align = s[i] == '<';
    ++i;
  }
  if (i < s.size() && s[i] == '0') {
    spec.zero_fill = true;
    ++i;
  }
  while (i < s.size() && s[i] >= '0' && s[i] <= '9') {
    spec.width = spec.width * 10 + (s[i] - '0');
    ++i;
  }
  if (i < s.size() && s[i] == '.') {
    ++i;
    spec.precision = 0;
    while (i < s.size() && s[i] >= '0' && s[i] <= '9') {
      spec.precision = spec.precision * 10 + (s[i] - '0');
      ++i;
    }
  }
  if (i < s.size()) {
    spec.type = s[i];
    ++i;
  }
  if (i != s.size()) {
    throw std::invalid_argument("sciprep::fmt: bad format spec '" +
                                std::string(s) + "'");
  }
  return spec;
}

inline void pad(std::string& out, const Spec& spec, std::string_view body) {
  if (static_cast<int>(body.size()) >= spec.width) {
    out.append(body);
    return;
  }
  const std::size_t fill = static_cast<std::size_t>(spec.width) - body.size();
  if (spec.left_align) {
    out.append(body);
    out.append(fill, ' ');
  } else if (spec.zero_fill) {
    const bool sign = !body.empty() && (body[0] == '-' || body[0] == '+');
    out.append(body.substr(0, sign ? 1 : 0));
    out.append(fill, '0');
    out.append(body.substr(sign ? 1 : 0));
  } else {
    out.append(fill, ' ');
    out.append(body);
  }
}

inline void format_one(std::string& out, const Spec& spec, double v) {
  char conv = spec.type != 0 ? spec.type : 'g';
  if (conv == 'd') conv = 'g';
  char buf[64];
  const int prec = spec.precision >= 0 ? spec.precision : 6;
  char pattern[16] = {'%', '.', '*'};
  pattern[3] = conv;
  pattern[4] = '\0';
  std::snprintf(buf, sizeof(buf), pattern, prec, v);
  pad(out, spec, buf);
}

template <class T>
  requires std::is_integral_v<T>
inline void format_one(std::string& out, const Spec& spec, T v) {
  if (spec.type == 'f' || spec.type == 'e' || spec.type == 'g' ||
      spec.precision >= 0) {
    format_one(out, spec, static_cast<double>(v));
    return;
  }
  char buf[32];
  if (spec.type == 'x') {
    std::snprintf(buf, sizeof(buf), "%llx",
                  static_cast<unsigned long long>(
                      static_cast<std::make_unsigned_t<T>>(v)));
  } else if constexpr (std::is_signed_v<T>) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(v));
  }
  pad(out, spec, buf);
}

inline void format_one(std::string& out, const Spec& spec,
                       std::string_view v) {
  pad(out, spec, v);
}
inline void format_one(std::string& out, const Spec& spec, const char* v) {
  pad(out, spec, std::string_view(v));
}
inline void format_one(std::string& out, const Spec& spec,
                       const std::string& v) {
  pad(out, spec, v);
}
inline void format_one(std::string& out, const Spec& spec, bool v) {
  pad(out, spec, v ? "true" : "false");
}
inline void format_one(std::string& out, const Spec& spec, float v) {
  format_one(out, spec, static_cast<double>(v));
}

inline void format_rest(std::string& out, std::string_view fmt) {
  std::size_t i = 0;
  while (i < fmt.size()) {
    if (fmt[i] == '{') {
      if (i + 1 < fmt.size() && fmt[i + 1] == '{') {
        out.push_back('{');
        i += 2;
        continue;
      }
      throw std::invalid_argument(
          "sciprep::fmt: more placeholders than arguments");
    }
    if (fmt[i] == '}' && i + 1 < fmt.size() && fmt[i + 1] == '}') {
      out.push_back('}');
      i += 2;
      continue;
    }
    out.push_back(fmt[i++]);
  }
}

template <class First, class... Rest>
void format_rest(std::string& out, std::string_view fmt, First&& first,
                 Rest&&... rest) {
  std::size_t i = 0;
  while (i < fmt.size()) {
    if (fmt[i] == '{') {
      if (i + 1 < fmt.size() && fmt[i + 1] == '{') {
        out.push_back('{');
        i += 2;
        continue;
      }
      const std::size_t close = fmt.find('}', i);
      if (close == std::string_view::npos) {
        throw std::invalid_argument("sciprep::fmt: unterminated placeholder");
      }
      std::string_view body = fmt.substr(i + 1, close - i - 1);
      Spec spec;
      if (!body.empty()) {
        if (body[0] != ':') {
          throw std::invalid_argument(
              "sciprep::fmt: only sequential {} placeholders are supported");
        }
        spec = parse_spec(body.substr(1));
      }
      format_one(out, spec, std::forward<First>(first));
      format_rest(out, fmt.substr(close + 1), std::forward<Rest>(rest)...);
      return;
    }
    if (fmt[i] == '}' && i + 1 < fmt.size() && fmt[i + 1] == '}') {
      out.push_back('}');
      i += 2;
      continue;
    }
    out.push_back(fmt[i++]);
  }
  throw std::invalid_argument("sciprep::fmt: more arguments than placeholders");
}

}  // namespace fmt_detail

/// Format `args` into `fmt` ({}-style placeholders, see file comment).
template <class... Args>
std::string fmt(std::string_view format_string, Args&&... args) {
  std::string out;
  out.reserve(format_string.size() + sizeof...(Args) * 8);
  fmt_detail::format_rest(out, format_string, std::forward<Args>(args)...);
  return out;
}

}  // namespace sciprep
