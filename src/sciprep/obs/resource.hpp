// Host resource sampling (sciprep::obs).
//
// Preprocessing throughput is only interpretable next to what the host paid
// for it ("Understand Data Preprocessing…"): peak RSS says whether the
// decoded working set still fits, CPU seconds split samples/s into useful
// work vs scheduler churn, and involuntary context switches expose a noisy
// neighbour mid-benchmark. ResourceSampler reads /proc/self/{stat,status,io}
// and getrusage(2) into one ResourceSample and publishes the values as
// proc.* gauges, so the insight exporter's JSONL ticks and the bench records
// (apps/benchreport.hpp) carry the same readings.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "sciprep/obs/metrics.hpp"

namespace sciprep::obs {

/// One point-in-time reading of the process's host resource consumption.
/// Cumulative fields (CPU seconds, faults, context switches, IO bytes) are
/// monotone across samples of one process; rss_bytes is instantaneous and
/// peak_rss_bytes is its high-watermark.
struct ResourceSample {
  bool ok = false;                    // false: sampling unavailable
  double cpu_utime_seconds = 0;       // user CPU, whole process (getrusage)
  double cpu_stime_seconds = 0;       // system CPU
  std::uint64_t rss_bytes = 0;        // current resident set (VmRSS)
  std::uint64_t peak_rss_bytes = 0;   // high-watermark (VmHWM / ru_maxrss)
  std::uint64_t minor_faults = 0;
  std::uint64_t major_faults = 0;
  std::uint64_t ctx_voluntary = 0;    // voluntary context switches
  std::uint64_t ctx_involuntary = 0;  // preemptions
  std::uint64_t io_read_bytes = 0;    // /proc/self/io read_bytes (0 if absent)
  std::uint64_t io_write_bytes = 0;
  std::uint64_t threads = 0;          // /proc/self/stat num_threads

  [[nodiscard]] double cpu_seconds() const noexcept {
    return cpu_utime_seconds + cpu_stime_seconds;
  }
  /// Summary JSON object ({"cpu_utime_seconds":..,...}) for bench records.
  [[nodiscard]] std::string to_json() const;
};

/// Samples the process and mirrors the readings into a MetricsRegistry as
/// proc.* gauges. Publish on the insight exporter's cadence by handing
/// exporter_hook() to ExporterConfig::pre_tick — every JSONL tick then
/// carries the resource series alongside the pipeline counters.
class ResourceSampler {
 public:
  /// `registry` null means obs::MetricsRegistry::global(). Must outlive the
  /// sampler.
  explicit ResourceSampler(MetricsRegistry* registry = nullptr);

  /// Read /proc + getrusage right now. Never throws; a sample taken on a
  /// host without /proc still carries the getrusage fields.
  [[nodiscard]] static ResourceSample sample();

  /// sample() + set the proc.* gauges. Thread-safe.
  ResourceSample publish();

  /// Callback form of publish() for ExporterConfig::pre_tick.
  [[nodiscard]] std::function<void()> exporter_hook();

 private:
  MetricsRegistry* registry_;
};

}  // namespace sciprep::obs
