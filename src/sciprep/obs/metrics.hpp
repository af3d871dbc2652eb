// Metrics registry — the aggregate half of sciprep::obs.
//
// Named counters (monotonic uint64), gauges (level + high-watermark), and
// log-bucketed latency histograms (LogHistogram from common/stats.hpp, with
// p50/p90/p99 summaries). Metric objects are created on first use and their
// references stay valid for the registry's lifetime, so hot paths resolve a
// metric once and then pay one relaxed atomic per event.
//
// Dump formats: to_json() (machine-readable, valid JSON — NaN becomes null)
// and human_dump() (aligned table for terminals); MetricsSnapshot series
// render as fleet.v1 JSONL lines and Prometheus text. The process-wide
// MetricsRegistry::global() also mirrors the log layer's warn/error counts
// as log.warnings_total / log.errors_total.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

#include "sciprep/common/stats.hpp"
#include "sciprep/common/threadpool.hpp"

namespace sciprep::obs {

/// Monotonic event counter.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Instantaneous level with a high-watermark (e.g. queue depth).
class Gauge {
 public:
  void set(std::int64_t v) noexcept {
    value_.store(v, std::memory_order_relaxed);
    raise_watermark(v);
  }
  void add(std::int64_t delta) noexcept {
    const std::int64_t now =
        value_.fetch_add(delta, std::memory_order_relaxed) + delta;
    raise_watermark(now);
  }
  [[nodiscard]] std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t high_watermark() const noexcept {
    return high_.load(std::memory_order_relaxed);
  }
  void reset() noexcept {
    value_.store(0, std::memory_order_relaxed);
    high_.store(0, std::memory_order_relaxed);
  }

 private:
  void raise_watermark(std::int64_t v) noexcept {
    std::int64_t seen = high_.load(std::memory_order_relaxed);
    while (v > seen &&
           !high_.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
    }
  }

  std::atomic<std::int64_t> value_{0};
  std::atomic<std::int64_t> high_{0};
};

/// Thread-safe log-bucketed histogram (see LogHistogram for bucketing).
class Histogram {
 public:
  explicit Histogram(LogHistogram::Options options = {}) : hist_(options) {}

  void record(double value) {
    std::lock_guard lock(mutex_);
    hist_.record(value);
  }
  [[nodiscard]] LogHistogram snapshot() const {
    std::lock_guard lock(mutex_);
    return hist_;
  }
  [[nodiscard]] std::uint64_t count() const {
    std::lock_guard lock(mutex_);
    return hist_.count();
  }
  [[nodiscard]] double sum() const {
    std::lock_guard lock(mutex_);
    return hist_.sum();
  }
  [[nodiscard]] double quantile(double q) const {
    std::lock_guard lock(mutex_);
    return hist_.quantile(q);
  }
  void reset() {
    std::lock_guard lock(mutex_);
    hist_ = LogHistogram(hist_.options());
  }

 private:
  mutable std::mutex mutex_;
  LogHistogram hist_;
};

/// Point-in-time copy of every metric's value — the unit the insight
/// exporter diffs between ticks and the flight recorder embeds in incident
/// files. Histograms carry count/sum only: enough for rate and mean-latency
/// deltas without copying bucket arrays on every sampling tick.
struct MetricsSnapshot {
  struct GaugeValue {
    std::int64_t value = 0;
    std::int64_t high_watermark = 0;
  };
  struct HistogramSummary {
    std::uint64_t count = 0;
    double sum = 0.0;
  };
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, GaugeValue> gauges;
  std::map<std::string, HistogramSummary> histograms;
};

/// current - previous, per metric. Counters and histogram count/sum subtract
/// (a counter clamps to its current value if the registry was reset
/// mid-flight; a histogram whose count went backwards restarts from its
/// current summary); gauges carry the current level/watermark through
/// unchanged. Metrics absent from `previous` appear with their full current
/// value. The algebra is exact:
///
///   accumulate(accumulate(zero, d1), d2) == snapshot   (counters, hists)
[[nodiscard]] MetricsSnapshot snapshot_delta(const MetricsSnapshot& current,
                                             const MetricsSnapshot& previous);

/// Fold one delta into running totals (the inverse of snapshot_delta).
/// Gauges are levels: last value wins, high-watermarks take the max.
void snapshot_accumulate(MetricsSnapshot& into, const MetricsSnapshot& delta);

// --- Metrics time-series (`sciprep.flow.fleet.v1`) -------------------------
//
// The one JSONL series format: the insight exporter's ticks, a traced wire
// client's pulled per-tenant deltas, and fleetview's merged output are all
// fleet.v1 lines. Every line carries both cumulative totals and the delta
// since the previous line of its scope, which makes a series self-checking:
// the sum of a scope's deltas must equal its last declared totals.

inline constexpr const char* kFleetSchema = "sciprep.flow.fleet.v1";

/// One parsed fleet.v1 line. `scope` names the series ("tenant/<name>",
/// "rank<N>", "" for a whole-process series); `t` is seconds since the
/// emitting process's run start.
struct FleetLine {
  std::string scope;
  double t = 0;
  MetricsSnapshot totals;
  MetricsSnapshot delta;
};

/// Render one fleet.v1 JSONL line (no trailing newline); `seq` numbers the
/// line within its series.
[[nodiscard]] std::string fleet_line(const std::string& scope,
                                     std::uint64_t seq, double t_seconds,
                                     const MetricsSnapshot& totals,
                                     const MetricsSnapshot& delta);

/// Parse one fleet.v1 line; false for invalid JSON or any other schema.
[[nodiscard]] bool parse_fleet_line(std::string_view text, FleetLine& out);

/// Prometheus text body over named scopes: per metric a TYPE line, one
/// {scope="..."} labelled sample per scope that has it, and the unlabelled
/// sum across scopes. A scope named "" contributes only to the sum, so a
/// single unnamed scope renders plain unlabelled samples. Names map onto
/// [a-zA-Z0-9_] with a "sciprep_" prefix; histograms render as summary
/// _count/_sum pairs.
[[nodiscard]] std::string prometheus_text(
    const std::map<std::string, MetricsSnapshot>& scopes);

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Process-wide registry. Also wires the log layer's warn/error counts in
  /// as log.warnings_total / log.errors_total on first use.
  static MetricsRegistry& global();

  /// Find-or-create; returned references live as long as the registry.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name,
                       LogHistogram::Options options = {});

  /// Value of a counter, 0 when it does not exist (never creates).
  [[nodiscard]] std::uint64_t counter_value(const std::string& name) const;

  /// Consistent point-in-time copy of every metric (one lock hold).
  [[nodiscard]] MetricsSnapshot snapshot() const;

  [[nodiscard]] std::string to_json() const;
  [[nodiscard]] std::string human_dump() const;
  /// Write to_json() to `path`; throws IoError on failure.
  void write_json(const std::string& path) const;

  /// Zero every counter/gauge and clear every histogram (names survive).
  void reset();

 private:
  mutable std::mutex mutex_;
  // std::map: node stability lets metric references outlive rehashing.
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
};

/// ThreadPool observer that records outstanding-task depth (queued +
/// running, with its high-watermark), queue wait, and task run time into a
/// registry under `prefix` (e.g. "pipeline.pool"). Attach with
/// pool.set_observer(&pool_metrics); detach before destroying either side.
class PoolMetrics final : public ThreadPoolObserver {
 public:
  PoolMetrics(MetricsRegistry& registry, const std::string& prefix);

  void on_enqueue(std::size_t queue_depth) override;
  void on_task_complete(double queue_seconds, double run_seconds) override;

 private:
  Gauge& depth_;
  Counter& tasks_;
  Histogram& queue_seconds_;
  Histogram& run_seconds_;
};

}  // namespace sciprep::obs
