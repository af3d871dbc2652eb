// Span tracer — the timeline half of sciprep::obs.
//
// A Tracer keeps a fixed-capacity ring buffer of completed spans
// {name, category, thread, t_start, t_end, args}; when the ring wraps, the
// oldest spans are overwritten (total_recorded() - size() tells how many were
// dropped). Recording is lock-cheap: writers claim a slot with one atomic
// fetch-add under a shared lock, so concurrent decode workers never serialize
// against each other; only snapshot/export takes the exclusive lock.
//
// Spans are exported as Chrome/Perfetto `trace_event` JSON ("ph":"X"
// complete events, microsecond timestamps) — load the file in
// chrome://tracing or https://ui.perfetto.dev to see the pipeline timeline.
//
// The tracer is disabled by default; ScopedSpan is a no-op (one relaxed
// atomic load) until set_enabled(true). Every build carries the tracer;
// loadbench's obs.trace_overhead_fraction prices it switched on.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

namespace sciprep::obs {

class Counter;  // metrics.hpp; trace avoids the include to stay cycle-free

struct TraceSpan {
  std::string name;
  std::string category;
  std::uint32_t thread = 0;
  std::uint64_t t_start_ns = 0;  // relative to the tracer's construction
  std::uint64_t t_end_ns = 0;
  std::string args_json;  // "" or a preformatted JSON object ("{...}")
};

class Tracer {
 public:
  static constexpr std::size_t kDefaultCapacity = std::size_t{1} << 16;

  explicit Tracer(std::size_t capacity = kDefaultCapacity);

  /// Process-wide tracer that ScopedSpan(name, category) records into.
  static Tracer& global();

  void set_enabled(bool enabled) noexcept {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Monotonic nanoseconds since this tracer was constructed.
  [[nodiscard]] std::uint64_t now_ns() const noexcept;

  /// Label for this process's track in exported traces. Defaults to
  /// "sciprep"; multi-process runs (wire server/client) set distinct names
  /// so a merged trace renders one named track per process.
  void set_process_name(std::string name);
  [[nodiscard]] std::string process_name() const;

  /// Append one completed span (records regardless of enabled(); the
  /// enabled flag gates ScopedSpan, not explicit recording).
  void record(std::string_view name, std::string_view category,
              std::uint64_t t_start_ns, std::uint64_t t_end_ns,
              std::string args_json = {});

  [[nodiscard]] std::size_t capacity() const noexcept { return ring_.size(); }
  /// Spans currently retained (<= capacity).
  [[nodiscard]] std::size_t size() const;
  /// Spans ever recorded (recorded - retained were overwritten).
  [[nodiscard]] std::uint64_t total_recorded() const;
  /// Spans overwritten by ring wrap since construction (or clear()). Also
  /// mirrored into the process registry as obs.trace.spans_dropped_total, so
  /// a metrics dump reveals when an exported trace is incomplete.
  [[nodiscard]] std::uint64_t dropped_total() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }
  void clear();

  /// Retained spans, oldest first.
  [[nodiscard]] std::vector<TraceSpan> snapshot() const;
  /// The newest `max_spans` retained spans, oldest of them first. The
  /// flight-recorder drain: an incident dump wants the last-K timeline, not
  /// a copy of the whole ring.
  [[nodiscard]] std::vector<TraceSpan> snapshot_tail(
      std::size_t max_spans) const;
  /// Full Chrome `trace_event` JSON document.
  [[nodiscard]] std::string to_chrome_json() const;
  /// Write to_chrome_json() to `path`; throws IoError on failure.
  void write_chrome_json(const std::string& path) const;

 private:
  [[nodiscard]] std::vector<TraceSpan> snapshot_locked(
      std::size_t max_spans) const;

  std::vector<TraceSpan> ring_;
  std::string process_name_ = "sciprep";  // guarded by mutex_
  std::atomic<std::uint64_t> next_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<bool> enabled_{false};
  std::chrono::steady_clock::time_point epoch_;
  mutable std::shared_mutex mutex_;
  Counter* dropped_counter_;  // obs.trace.spans_dropped_total (global)
};

/// RAII span: measures construction-to-destruction and records it into the
/// tracer. When the tracer is disabled at construction, every operation is a
/// no-op (and no strings are copied).
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string_view name, std::string_view category)
      : tracer_(tracer.enabled() ? &tracer : nullptr) {
    if (tracer_ != nullptr) {
      name_ = name;
      category_ = category;
      t_start_ns_ = tracer_->now_ns();
    }
  }
  ScopedSpan(std::string_view name, std::string_view category)
      : ScopedSpan(Tracer::global(), name, category) {}

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  ~ScopedSpan() {
    if (tracer_ != nullptr) {
      tracer_->record(name_, category_, t_start_ns_, tracer_->now_ns(),
                      std::move(args_json_));
    }
  }

  /// Attach a preformatted JSON object ("{...}") shown as the span's args.
  void set_args_json(std::string args_json) {
    if (tracer_ != nullptr) {
      args_json_ = std::move(args_json);
    }
  }

  /// False when tracing was disabled at construction — lets callers skip
  /// building an args string nobody will see.
  [[nodiscard]] bool active() const noexcept { return tracer_ != nullptr; }

 private:
  Tracer* tracer_;
  std::string name_;
  std::string category_;
  std::string args_json_;
  std::uint64_t t_start_ns_ = 0;
};

}  // namespace sciprep::obs
