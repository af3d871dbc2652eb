#include "sciprep/insight/exporter.hpp"

#include <utility>

#include "sciprep/common/log.hpp"
#include "sciprep/common/sysio.hpp"
#include "sciprep/common/threadpool.hpp"

namespace sciprep::insight {

ContinuousExporter::ContinuousExporter(ExporterConfig config)
    : config_(std::move(config)),
      metrics_(config_.metrics != nullptr ? config_.metrics
                                          : &obs::MetricsRegistry::global()) {
  if (config_.interval_seconds <= 0) config_.interval_seconds = 0.1;
}

ContinuousExporter::~ContinuousExporter() { stop(); }

std::uint64_t ContinuousExporter::ticks_total() const noexcept {
  return ticks_.load(std::memory_order_relaxed);
}

#if defined(SCIPREP_OBS_DISABLED)

void ContinuousExporter::start() {}
void ContinuousExporter::stop() {}
void ContinuousExporter::tick() {}
void ContinuousExporter::run() {}
void ContinuousExporter::tick_locked() {}

#else

void ContinuousExporter::start() {
  std::lock_guard lock(mutex_);
  if (running_) return;
  if (config_.jsonl_path.empty() && config_.prom_path.empty()) return;
  running_ = true;
  stopping_ = false;
  started_at_ = std::chrono::steady_clock::now();
  // Baseline: the first tick's deltas cover exactly [start, first tick).
  last_ = metrics_->snapshot();
  thread_ = std::thread([this] { run(); });
}

void ContinuousExporter::stop() {
  {
    std::lock_guard lock(mutex_);
    if (!running_) return;
    stopping_ = true;
  }
  cv_.notify_all();
  thread_.join();
  std::lock_guard lock(mutex_);
  // Final flush: increments in the last partial interval land in one
  // closing tick instead of evaporating.
  tick_locked();
  running_ = false;
}

void ContinuousExporter::tick() {
  std::lock_guard lock(mutex_);
  if (!running_) {
    // Driven manually (tests): lazily establish the baseline.
    if (ticks_.load(std::memory_order_relaxed) == 0 &&
        started_at_ == std::chrono::steady_clock::time_point{}) {
      started_at_ = std::chrono::steady_clock::now();
      last_ = metrics_->snapshot();
    }
  }
  tick_locked();
}

void ContinuousExporter::run() {
  set_thread_name("insight.exporter");
  std::unique_lock lock(mutex_);
  const auto interval = std::chrono::duration_cast<
      std::chrono::steady_clock::duration>(
      std::chrono::duration<double>(config_.interval_seconds));
  while (!stopping_) {
    if (cv_.wait_for(lock, interval, [this] { return stopping_; })) {
      return;  // stop() writes the closing tick after the join
    }
    tick_locked();
  }
}

void ContinuousExporter::tick_locked() {
  if (config_.pre_tick) config_.pre_tick();
  const auto now = std::chrono::steady_clock::now();
  const double t = std::chrono::duration<double>(now - started_at_).count();
  const obs::MetricsSnapshot snap = metrics_->snapshot();

  try {
    if (!config_.jsonl_path.empty()) {
      const std::string line =
          obs::fleet_line(config_.scope, ticks_.load(std::memory_order_relaxed),
                          t, snap, obs::snapshot_delta(snap, last_)) +
          "\n";
      sysio::append_file(config_.jsonl_path, as_bytes(line));
    }
    if (!config_.prom_path.empty()) {
      sysio::write_file_atomic(
          config_.prom_path,
          as_bytes(obs::prometheus_text({{config_.scope, snap}})));
    }
  } catch (const std::exception& e) {
    // A failing disk must degrade telemetry, not the run it observes.
    log_warn("insight: export tick failed: {}", e.what());
  }

  last_ = snap;
  ticks_.fetch_add(1, std::memory_order_relaxed);
  metrics_->counter("insight.export_ticks_total").add(1);
}

#endif  // SCIPREP_OBS_DISABLED

}  // namespace sciprep::insight
