// Fault injection and recovery policies for the data pipeline.
//
// Two halves, one contract:
//
//   * `Injector` — a seeded, site-addressed fault source. Each injection
//     site (io.read, tfrecord.payload_crc, h5lite.chunk_crc, codec.decode,
//     gpu.launch) carries per-fault-kind probabilities; the injector can
//     fail an operation transiently, delay it, flip a byte in a record, or
//     truncate it. Every decision is a pure function of (seed, site, op id),
//     so injected runs are reproducible regardless of thread scheduling or
//     the order in which sites are consulted. Install one per pipeline
//     (PipelineConfig::injector) or process-wide (Injector::install_global).
//
//   * `FaultPolicy` — what the pipeline does when a sample fails. Actions
//     are per error class (transient vs corrupt, see common/error.hpp):
//     kFail re-throws (the pre-fault behavior, and the default), kRetry
//     re-reads transients with bounded backoff, kSkipSample quarantines the
//     sample id and keeps the epoch going, kFallback re-decodes through the
//     CPU baseline path. A bounded error budget caps total recovery events;
//     once spent, every further failure escalates to kFail.
//
// Recovery events land in the obs metrics registry: fault.injected_total
// (plus per-site fault.<site>_total) on the injector side, and
// pipeline.retries_total / pipeline.samples_skipped_total /
// pipeline.fallbacks_total / the pipeline.degraded gauge on the policy side.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <string>

#include "sciprep/common/buffer.hpp"
#include "sciprep/obs/metrics.hpp"

namespace sciprep::fault {

/// Addressable injection points. Names (site_name) follow the metric-style
/// dotted convention so they read naturally in configs and dumps.
enum class Site : int {
  kIoRead = 0,          // "io.read": fetching a sample's stored bytes
  kTfrecordPayloadCrc,  // "tfrecord.payload_crc": TFRecord payload at rest
  kH5ChunkCrc,          // "h5lite.chunk_crc": h5lite chunk data at rest
  kCodecDecode,         // "codec.decode": encoded codec payload at rest
  kGpuLaunch,           // "gpu.launch": submitting a decode kernel
  kRankHeartbeat,       // "rank.heartbeat": a rank's liveness beat going out
  kRankCrash,           // "rank.crash": a rank mid-batch (process death)
  kWireFrameCrc,        // "wire.frame_crc": a serving frame on the socket
  kWireConnDrop,        // "wire.conn_drop": a serving connection mid-request
};

inline constexpr int kSiteCount = 9;

const char* site_name(Site site) noexcept;

/// Per-site fault probabilities, each drawn independently per operation.
/// All-zero (the default) makes the site transparent.
struct SiteConfig {
  double transient_probability = 0;  // throw TransientError
  double corrupt_probability = 0;    // flip one framing bit (detectable)
  double truncate_probability = 0;   // cut the record short
  double delay_probability = 0;      // stall the operation
  double delay_seconds = 0;          // stall length when a delay fires
};

/// Seeded, deterministic fault source. Thread-safe: decisions involve no
/// mutable state, and the fired-fault counters are relaxed atomics.
class Injector {
 public:
  /// Fired faults are counted into `metrics` (fault.injected_total and
  /// fault.<site>_total); null means obs::MetricsRegistry::global(). The
  /// registry must outlive the injector.
  explicit Injector(std::uint64_t seed = 1,
                    obs::MetricsRegistry* metrics = nullptr);

  void configure(Site site, const SiteConfig& config);
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

  /// Gate an operation through `site`: sleeps if the delay draw fires, then
  /// throws TransientError if the transient draw fires. `op` identifies the
  /// operation (e.g. a hash of epoch/sample/attempt); the same (site, op)
  /// always decides the same way.
  void on_operation(Site site, std::uint64_t op) const;

  /// Pass stored bytes through `site`'s corruption faults. When neither the
  /// corrupt nor the truncate draw fires, returns `data` untouched (the
  /// zero-fault hot path copies nothing). When one fires, `scratch` receives
  /// a mutated copy — a single bit flipped and/or the tail cut off at a
  /// deterministic position — and the returned span views `scratch`.
  [[nodiscard]] ByteSpan mutate(Site site, std::uint64_t op, ByteSpan data,
                                Bytes& scratch) const;

  /// Total faults fired by this injector (all sites, all kinds).
  [[nodiscard]] std::uint64_t injected_total() const noexcept {
    return injected_->value();
  }

  /// Process-wide injector consulted by pipelines with no per-pipeline one.
  /// Null (the default) means no injection anywhere.
  static Injector* global() noexcept;
  /// Install (or, with null, remove) the process-wide injector. The caller
  /// keeps ownership and must uninstall before destroying it.
  static void install_global(Injector* injector) noexcept;

 private:
  [[nodiscard]] double draw(Site site, std::uint64_t op,
                            std::uint64_t purpose) const noexcept;
  [[nodiscard]] std::uint64_t draw_u64(Site site, std::uint64_t op,
                                       std::uint64_t purpose) const noexcept;
  void count(Site site) const noexcept;

  std::uint64_t seed_;
  std::array<SiteConfig, kSiteCount> sites_{};
  obs::Counter* injected_;                             // fault.injected_total
  std::array<obs::Counter*, kSiteCount> site_counts_;  // fault.<site>_total
};

/// What the pipeline does with a failed sample.
enum class Action {
  kFail,        // re-throw to the caller (pre-fault behavior)
  kRetry,       // re-read/decode with bounded backoff (transients only)
  kSkipSample,  // quarantine the sample id, keep the epoch going
  kFallback,    // re-decode through the CPU baseline path
};

struct RetryPolicy {
  int max_attempts = 3;            // total tries, including the first
  double backoff_seconds = 0;      // sleep before the second attempt
  double backoff_multiplier = 2;   // growth factor per further attempt
};

/// Per-error-class recovery policy, carried on PipelineConfig. The default
/// (kFail everywhere) reproduces today's throw-through behavior exactly.
struct FaultPolicy {
  Action on_transient = Action::kFail;  // kFail | kRetry | kSkipSample | kFallback
  Action on_corrupt = Action::kFail;    // kFail | kSkipSample | kFallback
  RetryPolicy retry;                    // used when on_transient == kRetry
  /// Escalation when retries are exhausted: kFail or kSkipSample.
  Action on_retry_exhausted = Action::kSkipSample;
  /// Recovery events (retries + skips + fallbacks) a pipeline may absorb
  /// *per epoch* before degradation is judged unacceptable and every further
  /// failure escalates to kFail. Guards against e.g. a wholly-corrupt shard
  /// silently skipping its way through an epoch; start_epoch() refills the
  /// budget, so a persistent bad shard fails every epoch rather than only
  /// the first.
  std::uint64_t error_budget = 256;
  /// Hard bound on the kSkipSample quarantine. Per epoch, a skip beyond the
  /// cap escalates to kFail (reported as kBudgetExhausted) instead of
  /// silently quarantining a pathologically corrupt dataset one sample at a
  /// time; across epochs, the lifetime quarantine list is compacted and its
  /// oldest entries evicted past the cap (fault.quarantine_evictions_total)
  /// so it can never grow without limit.
  std::uint64_t quarantine_cap = 1u << 16;
};

/// Kinds of recovery/guard incidents a pipeline reports to an installed
/// RecoveryListener (PipelineConfig::on_recovery_event). These are the
/// moments the insight flight recorder treats as evidence-dump triggers.
enum class EventKind : int {
  kRetry = 0,        // a transient failure is about to be retried
  kRetryExhausted,   // retries ran out; the escalation action applied
  kSkipSample,       // a sample was quarantined for the rest of the epoch
  kFallback,         // a sample re-decoded through the CPU baseline path
  kBudgetExhausted,  // the per-epoch error budget is spent; failures escalate
  kDeadlineExpired,  // a guard watchdog deadline fired on a stage
  kResumeReject,     // checkpoint resume rejected (config mismatch)
  kRankLost,         // a rank stopped heartbeating or crashed mid-batch
  kReshard,          // a dead rank's remaining shard redistributed
  kTenantLost,       // a serve tenant's session lease expired (dead consumer)
  kTenantEvicted,    // a serve tenant evicted (error budget / cancellation)
  kSessionShed,      // admission control rejected or degraded a session
  kWireFault,        // a wire transport fault (bad frame, dropped connection)
};

const char* event_kind_name(EventKind kind) noexcept;

/// One recovery/guard incident, as reported to a RecoveryListener.
struct RecoveryEvent {
  EventKind kind = EventKind::kRetry;
  std::string stage;   // stage or site name, e.g. "io.read", "decode"
  std::string detail;  // human-readable context (the error message, etc.)
  std::uint64_t sample_index = 0;  // sample being processed (0 if n/a)
  int attempt = 0;                 // retry attempt number (0 if n/a)
  /// Which scope of a multi-pipeline run the event belongs to — "rank3" for
  /// a sharded rank, a tenant name for a serve session, empty (the default,
  /// and the single-pipeline case) for process scope. Carried into
  /// flight-recorder incidents so an incident names the rank or tenant it
  /// happened on, and used by the recorder's per-scope rate limiting.
  std::string scope;
};

/// Incident callback. Implementations must be thread-safe — events fire
/// concurrently from pool workers and the guard watchdog thread — and must
/// not throw (a throwing listener would turn recovery into failure).
using RecoveryListener = std::function<void(const RecoveryEvent&)>;

}  // namespace sciprep::fault
