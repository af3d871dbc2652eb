// Minimal leveled logger. Pipeline workers log through this so diagnostic
// output from concurrent decode threads is line-atomic. Each line carries an
// ISO-8601 UTC timestamp, the level tag, and a dense per-thread id:
//
//   [2026-08-06T12:34:56.789Z sciprep:WARN t3] message
//
// An optional hook sees every message that reaches log_message (whether or
// not the threshold suppresses the output), so the observability layer can
// count warnings and errors in its metrics registry.
#pragma once

#include <string_view>

#include "sciprep/common/format.hpp"

namespace sciprep {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

/// Set the global threshold; messages below it are dropped.
void set_log_level(LogLevel level);
LogLevel log_level() noexcept;

/// Emit one line (thread-safe, flushed) if `level` passes the threshold.
void log_message(LogLevel level, std::string_view message);

/// Hook invoked (before threshold filtering) for every log_message call.
/// Used by sciprep::obs to bump errors_total counters. Pass nullptr to
/// detach. The hook must be thread-safe.
using LogHook = void (*)(LogLevel level, std::string_view message);
void set_log_hook(LogHook hook) noexcept;

template <class... Args>
void log_warn(std::string_view format_string, Args&&... args) {
  if (log_level() <= LogLevel::kWarn) {
    log_message(LogLevel::kWarn,
                fmt(format_string, std::forward<Args>(args)...));
  }
}

}  // namespace sciprep
