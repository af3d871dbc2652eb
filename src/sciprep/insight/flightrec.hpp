// Incident flight recorder (sciprep::insight).
//
// When the fault/guard machinery fires — a retry escalates, a watchdog
// deadline expires, a sample is quarantined, the error budget runs out, a
// checkpoint resume is rejected — the flight recorder dumps an incident file
// with the evidence a human needs *afterwards*: the last-K spans from the
// trace ring, a full metrics snapshot, the recent recovery-decision log, and
// the pipeline's config fingerprint, so the incident names the exact run
// configuration it happened under.
//
// Dumps are crash-safe (tmp + rename, like guard snapshots) and rate-limited
// two ways: a minimum interval between dumps and an incident cap, so a
// wholly-corrupt shard produces a handful of files, not one per sample.
// Both limits are scoped per RecoveryEvent::scope (rank, tenant, or the ""
// process scope): one tenant's incident storm spends only that tenant's
// cap and interval, so another tenant's first-of-kind incident still dumps.
// A global backstop (max_total_incidents) bounds the file count across all
// scopes. Every event — dumped or suppressed — still lands in the in-memory
// decision log, so the next dump carries the full recent history.
//
// record_incident() never throws: it is called from pool workers and the
// watchdog thread in the middle of recovery, where an exception would turn a
// recovered fault into a failed run.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>

#include "sciprep/fault/fault.hpp"
#include "sciprep/obs/metrics.hpp"
#include "sciprep/obs/trace.hpp"

namespace sciprep::insight {

/// Recovery events retained in the rolling decision log.
inline constexpr std::size_t kMaxDecisionLog = 64;

struct FlightRecorderConfig {
  /// Directory incident files land in (created if missing). Files are named
  /// incident-<seq>-<kind>.json.
  std::string dir;
  /// Newest spans from the trace ring embedded per incident.
  std::size_t max_spans = 256;
  /// Cap on incident files *per scope* (a rank, a tenant, or the "" process
  /// scope). A single-scope run behaves exactly as if this were a global
  /// cap; in a multi-tenant run each tenant spends its own.
  std::uint64_t max_incidents = 16;
  /// Backstop on incident files across every scope, so a run with many
  /// misbehaving tenants still writes a bounded set. Zero disables.
  std::uint64_t max_total_incidents = 64;
  /// Minimum spacing between a scope's dumps; events inside the window are
  /// logged but not dumped. Zero disables the interval limit (the caps
  /// still apply). The first occurrence of each (scope, kind) bypasses the
  /// interval — a rare deadline expiry arriving mid-retry-storm still
  /// produces its incident, and tenant B's first incident is never gated on
  /// tenant A's last dump time.
  double min_interval_seconds = 1.0;
  /// Metrics snapshot source; null means the process-global registry.
  obs::MetricsRegistry* metrics = nullptr;
  /// Span source; null means Tracer::global().
  const obs::Tracer* tracer = nullptr;
  /// The pipeline's config fingerprint, stamped into every incident.
  std::uint64_t config_fingerprint = 0;
};

class FlightRecorder {
 public:
  explicit FlightRecorder(FlightRecorderConfig config);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Log `event` and, unless rate-limited, dump an incident file. Never
  /// throws; a failed dump is counted and logged as a warning.
  void record_incident(const fault::RecoveryEvent& event) noexcept;

  /// Adapter for PipelineConfig::on_recovery_event. The recorder must
  /// outlive the pipeline.
  [[nodiscard]] fault::RecoveryListener listener();

  [[nodiscard]] std::uint64_t incidents_written() const noexcept;
  /// Events that did not produce a file (rate limit, cap, or write failure).
  [[nodiscard]] std::uint64_t incidents_suppressed() const noexcept;

  /// Stamp the fingerprint after the fact — the recorder is typically built
  /// (and its listener wired into PipelineConfig) before the pipeline whose
  /// fingerprint it reports exists.
  void set_config_fingerprint(std::uint64_t fingerprint) noexcept {
    std::lock_guard lock(mutex_);
    config_.config_fingerprint = fingerprint;
  }

 private:
  struct LoggedEvent {
    fault::RecoveryEvent event;
    std::uint64_t t_ns = 0;  // tracer timebase (steady clock)
    /// Wall-clock stamp (ISO-8601 UTC), captured at record time. The steady
    /// stamp orders the incident against spans; this one lets a human line
    /// the incident up against logs from *other* machines and processes.
    std::string t_wall;
  };

  /// Per-scope rate-limit bookkeeping (keyed by RecoveryEvent::scope).
  struct ScopeState {
    std::uint32_t dumped_kinds = 0;  // bitmask of EventKind values dumped
    std::uint64_t written = 0;
    std::chrono::steady_clock::time_point last_dump_at{};
  };

  void dump_locked(const LoggedEvent& logged);

  FlightRecorderConfig config_;
  obs::MetricsRegistry* metrics_;
  const obs::Tracer* tracer_;

  mutable std::mutex mutex_;
  std::deque<LoggedEvent> decision_log_;
  std::map<std::string, ScopeState> scopes_;
  std::uint64_t written_ = 0;  // across all scopes; also the file seq number
  std::uint64_t suppressed_ = 0;
};

}  // namespace sciprep::insight
