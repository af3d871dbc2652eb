#include "sciprep/obs/trace.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <mutex>

#include "sciprep/common/error.hpp"
#include "sciprep/common/sysio.hpp"
#include "sciprep/common/threadpool.hpp"
#include "sciprep/obs/json.hpp"
#include "sciprep/obs/metrics.hpp"

namespace sciprep::obs {

Tracer::Tracer(std::size_t capacity)
    : ring_(capacity > 0 ? capacity : 1),
      epoch_(std::chrono::steady_clock::now()),
      // Every tracer mirrors its drops into the one process-wide counter:
      // drops mean "the exported trace is missing spans", which is a
      // process-level observability defect wherever the ring lives.
      dropped_counter_(
          &MetricsRegistry::global().counter("obs.trace.spans_dropped_total")) {
}

Tracer& Tracer::global() {
  // Leaked on purpose: a pool worker still running at exit may record here.
  static auto& tracer = *new Tracer;
  return tracer;
}

std::uint64_t Tracer::now_ns() const noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

void Tracer::set_process_name(std::string name) {
  std::unique_lock lock(mutex_);
  process_name_ = std::move(name);
}

std::string Tracer::process_name() const {
  std::unique_lock lock(mutex_);
  return process_name_;
}

void Tracer::record(std::string_view name, std::string_view category,
                    std::uint64_t t_start_ns, std::uint64_t t_end_ns,
                    std::string args_json) {
  // Writers hold the lock shared: the atomic claim hands each of them a
  // distinct slot, so they never touch the same span. Exporters hold it
  // exclusive and therefore see fully-written spans.
  std::shared_lock lock(mutex_);
  const std::uint64_t slot = next_.fetch_add(1, std::memory_order_relaxed);
  if (slot >= ring_.size()) {
    // This write overwrites the ring's oldest retained span.
    dropped_.fetch_add(1, std::memory_order_relaxed);
    dropped_counter_->add(1);
  }
  TraceSpan& span = ring_[slot % ring_.size()];
  span.name.assign(name);
  span.category.assign(category);
  span.thread = thread_index();
  span.t_start_ns = t_start_ns;
  span.t_end_ns = t_end_ns;
  span.args_json = std::move(args_json);
}

std::size_t Tracer::size() const {
  const std::uint64_t total = next_.load();
  return total < ring_.size() ? static_cast<std::size_t>(total) : ring_.size();
}

std::uint64_t Tracer::total_recorded() const { return next_.load(); }

void Tracer::clear() {
  std::unique_lock lock(mutex_);
  next_.store(0);
  dropped_.store(0);
  for (TraceSpan& span : ring_) {
    span = TraceSpan{};
  }
}

std::vector<TraceSpan> Tracer::snapshot_locked(std::size_t max_spans) const {
  const std::uint64_t total = next_.load();
  std::vector<TraceSpan> out;
  if (total == 0 || max_spans == 0) return out;
  std::uint64_t n = std::min<std::uint64_t>(total, ring_.size());
  n = std::min<std::uint64_t>(n, max_spans);
  out.reserve(static_cast<std::size_t>(n));
  // Oldest returned span first.
  const std::uint64_t first = total - n;
  for (std::uint64_t i = 0; i < n; ++i) {
    out.push_back(ring_[(first + i) % ring_.size()]);
  }
  return out;
}

std::vector<TraceSpan> Tracer::snapshot() const {
  std::unique_lock lock(mutex_);
  return snapshot_locked(ring_.size());
}

std::vector<TraceSpan> Tracer::snapshot_tail(std::size_t max_spans) const {
  std::unique_lock lock(mutex_);
  return snapshot_locked(max_spans);
}

std::string Tracer::to_chrome_json() const {
  const std::vector<TraceSpan> spans = snapshot();
  // Real pid + a process_name metadata event: a trace merged from several
  // processes (sciprep::flow) must render distinct named tracks, so even the
  // single-process export identifies itself honestly.
  const long pid = static_cast<long>(::getpid());
  std::string out;
  out.reserve(spans.size() * 96 + 64);
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  out += fmt(
      "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},"
      "\"args\":{{\"name\":\"{}\"}}}}",
      pid, json_escape(process_name()));
  bool first = false;
  // Perfetto "M" metadata events: label each tid that registered a role name
  // (pool workers, watchdog, consumer) so the timeline rows are readable.
  {
    std::vector<std::uint32_t> tids;
    for (const TraceSpan& span : spans) {
      if (std::find(tids.begin(), tids.end(), span.thread) == tids.end()) {
        tids.push_back(span.thread);
      }
    }
    std::sort(tids.begin(), tids.end());
    for (const std::uint32_t tid : tids) {
      const std::string name = thread_name(tid);
      if (name.empty()) continue;
      if (!first) out += ',';
      first = false;
      out += fmt(
          "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{},\"tid\":{},"
          "\"args\":{{\"name\":\"{}\"}}}}",
          pid, tid, json_escape(name));
    }
  }
  for (const TraceSpan& span : spans) {
    if (!first) out += ',';
    first = false;
    const double ts_us = static_cast<double>(span.t_start_ns) / 1e3;
    const double dur_us =
        static_cast<double>(span.t_end_ns - span.t_start_ns) / 1e3;
    out += fmt(
        "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":{},"
        "\"tid\":{},\"ts\":{},\"dur\":{}",
        json_escape(span.name), json_escape(span.category), pid, span.thread,
        json_number(ts_us), json_number(dur_us));
    if (!span.args_json.empty()) {
      out += ",\"args\":";
      out += span.args_json;
    }
    out += '}';
  }
  out += "]}";
  return out;
}

void Tracer::write_chrome_json(const std::string& path) const {
  sysio::write_file(path, as_bytes(to_chrome_json()));
}

}  // namespace sciprep::obs
