// In-memory span log for the traced run.
//
// Spans are recorded only from the benchmark's own thread, around the calls
// it makes into each library layer; nothing inside the program is
// instrumented. Each span keeps its name, layer, start, end and parent (the
// span open when it started). The log is written once, at exit, as Chrome
// trace-event JSON, which Perfetto opens. Also the clock and percentile
// helpers every timing in the benchmark uses.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace loadbench {

/// Monotonic clock in nanoseconds (std::chrono::steady_clock).
std::int64_t now_ns();

/// The q-quantile of `v` by linear interpolation between order statistics;
/// 0 for an empty `v`.
double percentile(std::vector<double> v, double q);

class SpanLog {
 public:
  struct Span {
    std::string name;
    std::string layer;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = -1;  // -1 while open
    int parent = -1;
  };

  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  /// Matches any parent in durations_ms.
  static constexpr int kAnyParent = -2;

  void set_enabled(bool enabled) noexcept { enabled_ = enabled; }
  /// Open a span under the currently open one; returns its id (-1 when off).
  int open(std::string name, std::string layer);
  void close(int id);

  /// Durations in ms of every closed span named `name` whose parent is
  /// `parent`.
  [[nodiscard]] std::vector<double> durations_ms(const std::string& name,
                                                 int parent = kAnyParent) const;

  /// Chrome trace-event JSON ("X" events; args carry id and parent), with
  /// `metadata_json` (a JSON object) under "metadata".
  [[nodiscard]] std::string chrome_json(const std::string& metadata_json) const;
  /// Table of count, total and self time (span minus its children) per span
  /// name, grouped by layer.
  [[nodiscard]] std::string self_time_table() const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span; a no-op when the log is disabled.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, std::string name, std::string layer)
      : log_(log), id_(log.open(std::move(name), std::move(layer))) {}
  ~ScopedSpan() { log_.close(id_); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  int id_;
};

}  // namespace loadbench
