#include "sciprep/common/log.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <mutex>

#include "sciprep/common/threadpool.hpp"

namespace sciprep {

namespace {
std::atomic<LogLevel> g_level{LogLevel::kWarn};
std::atomic<LogHook> g_hook{nullptr};
std::mutex g_io_mutex;

constexpr const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarn:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
  }
  return "?";
}

/// "2026-08-06T12:34:56.789Z" into `out` (at least 32 bytes).
void format_utc_timestamp(char* out, std::size_t size) {
  const auto now = std::chrono::system_clock::now();
  const std::time_t secs = std::chrono::system_clock::to_time_t(now);
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      now.time_since_epoch())
                      .count() %
                  1000;
  std::tm tm{};
  gmtime_r(&secs, &tm);
  char date[24];
  std::strftime(date, sizeof(date), "%Y-%m-%dT%H:%M:%S", &tm);
  std::snprintf(out, size, "%s.%03dZ", date, static_cast<int>(ms));
}
}  // namespace

void set_log_level(LogLevel level) { g_level.store(level); }

LogLevel log_level() noexcept { return g_level.load(); }

void set_log_hook(LogHook hook) noexcept { g_hook.store(hook); }

void log_message(LogLevel level, std::string_view message) {
  if (const LogHook hook = g_hook.load()) {
    hook(level, message);
  }
  if (level < g_level.load()) return;
  char timestamp[32];
  format_utc_timestamp(timestamp, sizeof(timestamp));
  const std::uint32_t tid = thread_index();
  std::lock_guard lock(g_io_mutex);
  std::fprintf(stderr, "[%s sciprep:%s t%u] %.*s\n", timestamp,
               level_name(level), tid, static_cast<int>(message.size()),
               message.data());
  std::fflush(stderr);
}

}  // namespace sciprep
