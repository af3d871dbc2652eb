#include "sciprep/insight/flightrec.hpp"

#include <chrono>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <utility>

#include "sciprep/common/error.hpp"
#include "sciprep/common/log.hpp"
#include "sciprep/common/sysio.hpp"
#include "sciprep/common/threadpool.hpp"
#include "sciprep/obs/json.hpp"

namespace sciprep::insight {

namespace {

/// ISO-8601 UTC with millisecond precision, e.g. "2026-08-09T12:34:56.789Z".
std::string iso8601_utc_now() {
  const auto now = std::chrono::system_clock::now();
  const std::time_t secs = std::chrono::system_clock::to_time_t(now);
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      now.time_since_epoch())
                      .count() %
                  1000;
  std::tm tm{};
  gmtime_r(&secs, &tm);
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02dT%02d:%02d:%02d.%03dZ",
                tm.tm_year + 1900, tm.tm_mon + 1, tm.tm_mday, tm.tm_hour,
                tm.tm_min, tm.tm_sec, static_cast<int>(ms));
  return buf;
}

}  // namespace

FlightRecorder::FlightRecorder(FlightRecorderConfig config)
    : config_(std::move(config)),
      metrics_(config_.metrics != nullptr ? config_.metrics
                                          : &obs::MetricsRegistry::global()),
      tracer_(config_.tracer != nullptr ? config_.tracer
                                        : &obs::Tracer::global()) {
#if !defined(SCIPREP_OBS_DISABLED)
  if (!config_.dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(config_.dir, ec);
    if (ec) {
      log_warn("insight: cannot create flight-recorder dir '{}': {}",
               config_.dir, ec.message());
    }
  }
#endif
}

std::uint64_t FlightRecorder::incidents_written() const noexcept {
  std::lock_guard lock(mutex_);
  return written_;
}

std::uint64_t FlightRecorder::incidents_suppressed() const noexcept {
  std::lock_guard lock(mutex_);
  return suppressed_;
}

#if defined(SCIPREP_OBS_DISABLED)

void FlightRecorder::record_incident(const fault::RecoveryEvent&) noexcept {}
void FlightRecorder::dump_locked(const LoggedEvent&) {}
fault::RecoveryListener FlightRecorder::listener() { return {}; }

#else

fault::RecoveryListener FlightRecorder::listener() {
  return [this](const fault::RecoveryEvent& event) { record_incident(event); };
}

void FlightRecorder::record_incident(
    const fault::RecoveryEvent& event) noexcept {
  try {
    std::lock_guard lock(mutex_);
    LoggedEvent logged{event, tracer_->now_ns(), iso8601_utc_now()};
    decision_log_.push_back(logged);
    while (decision_log_.size() > config_.max_decision_log) {
      decision_log_.pop_front();
    }
    if (config_.dir.empty()) return;

    const auto now = std::chrono::steady_clock::now();
    const std::uint32_t kind_bit = 1u
                                   << static_cast<unsigned>(logged.event.kind);
    // Rate limits are per scope: a rank's or tenant's storm spends its own
    // cap and interval window, never another scope's first-of-kind dump.
    ScopeState& scope = scopes_[logged.event.scope];
    const bool under_cap =
        scope.written < config_.max_incidents &&
        (config_.max_total_incidents == 0 ||
         written_ < config_.max_total_incidents);
    const bool interval_ok =
        scope.written == 0 || (scope.dumped_kinds & kind_bit) == 0 ||
        config_.min_interval_seconds <= 0 ||
        std::chrono::duration<double>(now - scope.last_dump_at).count() >=
            config_.min_interval_seconds;
    if (!under_cap || !interval_ok) {
      suppressed_ += 1;
      metrics_->counter("insight.incidents_suppressed_total").add(1);
      return;
    }
    dump_locked(logged);
    scope.dumped_kinds |= kind_bit;
    scope.written += 1;
    scope.last_dump_at = now;
    written_ += 1;
    metrics_->counter("insight.incidents_written_total").add(1);
  } catch (const std::exception& e) {
    // Incident capture must never escalate the incident.
    suppressed_ += 1;
    log_warn("insight: incident dump failed: {}", e.what());
  }
}

void FlightRecorder::dump_locked(const LoggedEvent& logged) {
  std::string body;
  body.reserve(4096);
  body += fmt(
      "{{\"schema\":\"sciprep.insight.incident.v1\",\"seq\":{},"
      "\"kind\":\"{}\",\"stage\":\"{}\",\"detail\":\"{}\",\"scope\":\"{}\","
      "\"sample_index\":{},\"attempt\":{},\"t_ns\":{},\"t_wall\":\"{}\","
      "\"config_fingerprint\":\"{:x}\",",
      written_, fault::event_kind_name(logged.event.kind),
      obs::json_escape(logged.event.stage),
      obs::json_escape(logged.event.detail),
      obs::json_escape(logged.event.scope), logged.event.sample_index,
      logged.event.attempt, logged.t_ns, obs::json_escape(logged.t_wall),
      config_.config_fingerprint);

  // Last-K spans, oldest first, with role names resolved so the timeline
  // reads without a separate thread table.
  body += "\"spans\":[";
  bool first = true;
  for (const obs::TraceSpan& span : tracer_->snapshot_tail(config_.max_spans)) {
    if (!first) body += ',';
    first = false;
    body += fmt(
        "{{\"name\":\"{}\",\"cat\":\"{}\",\"thread\":{},"
        "\"thread_name\":\"{}\",\"t_start_ns\":{},\"t_end_ns\":{}}}",
        obs::json_escape(span.name), obs::json_escape(span.category),
        span.thread, obs::json_escape(thread_name(span.thread)),
        span.t_start_ns, span.t_end_ns);
  }
  body += "],";

  // Recent recovery decisions, including rate-limited ones.
  body += "\"decision_log\":[";
  first = true;
  for (const LoggedEvent& entry : decision_log_) {
    if (!first) body += ',';
    first = false;
    body += fmt(
        "{{\"kind\":\"{}\",\"stage\":\"{}\",\"detail\":\"{}\","
        "\"scope\":\"{}\",\"sample_index\":{},\"attempt\":{},\"t_ns\":{},"
        "\"t_wall\":\"{}\"}}",
        fault::event_kind_name(entry.event.kind),
        obs::json_escape(entry.event.stage),
        obs::json_escape(entry.event.detail),
        obs::json_escape(entry.event.scope), entry.event.sample_index,
        entry.event.attempt, entry.t_ns, obs::json_escape(entry.t_wall));
  }
  body += "],";

  body += "\"metrics\":";
  body += metrics_->to_json();
  body += "}\n";

  const std::string path =
      fmt("{}/incident-{}-{}.json", config_.dir, written_,
          fault::event_kind_name(logged.event.kind));
  sysio::write_file_atomic(path, as_bytes(body));
}

#endif  // SCIPREP_OBS_DISABLED

}  // namespace sciprep::insight
