// Continuous metrics exporter (sciprep::insight).
//
// A background sampler that snapshots a MetricsRegistry every N ms and
// appends one `sciprep.flow.fleet.v1` line per tick (obs::fleet_line, seq =
// tick number) to a JSONL time-series file, optionally also rewriting a
// Prometheus-style text file (obs::prometheus_text) with the latest values.
// The exporter is delta-aware: every counter carries its since-last-tick
// delta (obs::snapshot_delta) next to its total, and every line its time
// `t`, so samples/s, bytes/s, and retries/s are first-class series — the
// continuous view of preprocessing stalls the post-hoc aggregate dump
// cannot give.
//
// Threading mirrors the guard watchdog: the sampler thread starts lazily on
// start(), wakes once per interval, and stop() (or destruction) joins it
// after flushing one final tick — so every counter increment between start()
// and stop() lands in exactly one tick's delta, including increments in the
// final partial interval.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>

#include "sciprep/obs/metrics.hpp"

namespace sciprep::insight {

struct ExporterConfig {
  /// Sampling interval; values <= 0 fall back to 0.1 s.
  double interval_seconds = 0.1;
  /// JSONL time-series path ("" disables). One fleet.v1 line per tick,
  /// appended — restartable runs accumulate in the same file.
  std::string jsonl_path;
  /// Prometheus text-format path ("" disables). Rewritten atomically
  /// (tmp + rename) every tick with the latest values.
  std::string prom_path;
  /// Registry to sample; null means obs::MetricsRegistry::global(). Must
  /// outlive the exporter.
  obs::MetricsRegistry* metrics = nullptr;
  /// Scope stamped into every JSONL tick and used as the Prometheus
  /// {scope="..."} label ("tenant/<name>", "rank<N>", "" for a whole-process
  /// series). flow::merge_fleet() keys federated series by this field, so
  /// per-tenant exports from different processes stay distinguishable after
  /// they are merged into one file.
  std::string scope;
  /// Called at the start of every tick, before the registry snapshot — the
  /// hook by which slow-changing sources (e.g. obs::ResourceSampler)
  /// refresh their gauges on the exporter's cadence so each JSONL line
  /// carries a fresh reading. Runs on the sampler thread (and inside
  /// tick()); must be thread-safe and must not throw. Null is free.
  std::function<void()> pre_tick;
};

class ContinuousExporter {
 public:
  explicit ContinuousExporter(ExporterConfig config);
  ~ContinuousExporter();

  ContinuousExporter(const ContinuousExporter&) = delete;
  ContinuousExporter& operator=(const ContinuousExporter&) = delete;

  /// Take the baseline snapshot and start the sampler thread. No-op when
  /// already running or when neither output path is set.
  void start();

  /// Stop the sampler, flush one final tick covering the partial interval,
  /// and join. Idempotent.
  void stop();

  /// Take one sample right now (tick number, deltas, file writes) —
  /// the deterministic entry point tests drive without the thread.
  void tick();

  /// Ticks written so far (also exported as insight.export_ticks_total).
  [[nodiscard]] std::uint64_t ticks_total() const noexcept;

 private:
  void run();
  void tick_locked();

  ExporterConfig config_;
  obs::MetricsRegistry* metrics_;  // resolved target registry

  std::mutex mutex_;  // guards baseline/tick state and file writes
  std::condition_variable cv_;
  std::thread thread_;
  bool running_ = false;
  bool stopping_ = false;

  obs::MetricsSnapshot last_;  // previous tick's snapshot (delta base)
  std::chrono::steady_clock::time_point started_at_{};
  std::atomic<std::uint64_t> ticks_{0};
};

}  // namespace sciprep::insight
