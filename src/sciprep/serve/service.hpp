// Resident multi-tenant data service (sciprep::serve).
//
// One process-resident DataService admits many concurrent training jobs
// ("tenants"), each with its own epochs, shuffle seed, PipelineConfig, and
// fault policy, and multiplexes their decode fan-outs onto one shared worker
// pool (weighted-fair stride scheduling, see common/threadpool.hpp) and one
// shared decoded-sample cache (per-tenant admission quotas, see cache.hpp).
// Three service-level guarantees stack on top of the per-pipeline ones:
//
//   * Admission control + graceful overload degradation. Every session is
//     charged a deterministic in-flight-bytes estimate (batch size x probed
//     decoded-sample bytes, doubled when prefetch overlaps a second batch)
//     against ServiceLimits::max_inflight_bytes. Past the degrade watermark
//     the service sheds: new sessions are admitted *degraded* — prefetch off
//     and cache bypassed, halving their footprint — and past the budget they
//     are rejected outright. Shedding clears only below the recover
//     watermark (hysteresis, no admit/degrade flapping). Decisions are
//     deterministic functions of the committed ledger, so an overload drill
//     converges to the same admissions every run.
//
//   * Tenant fault isolation. Each tenant runs its own DataPipeline on a
//     private metrics registry and a private cancellation root, with its own
//     fault policy and error budget; the shared pool's parallel_for groups
//     keep one tenant's exceptions and stragglers invisible to the others.
//     A tenant whose pipeline escalates (budget exhausted, deadline expiry,
//     cancellation) is *evicted* — its charge released, its cache working
//     set dropped, a kTenantEvicted incident emitted under the tenant's
//     scope — without perturbing any other tenant's delivered stream.
//
//   * Session leases + crash recovery. Every next_batch() beats a per-slot
//     heartbeat lease; a consumer that dies simply stops beating, and
//     sweep_leases() suspends the dead session — checkpointing its pipeline
//     via guard::Snapshot (to disk when checkpoint_dir is set) and releasing
//     its admission charge. reattach() re-admits the tenant under current
//     pressure and resumes from the checkpoint; with verify_stream on, the
//     tenant's GlobalStreamDigest spans the suspend, so the continuation is
//     provably bit-identical to an uninterrupted run.
//
// Threading contract: the roster calls (open_session, close_session,
// sweep_leases, reattach) and each session's next_batch() stream may run on
// different threads, but a single session is single-consumer — its
// next_batch() must not race its own sweep/close/reattach. Distinct
// sessions' next_batch() calls are fully concurrent.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sciprep/codec/codec.hpp"
#include "sciprep/common/threadpool.hpp"
#include "sciprep/fault/fault.hpp"
#include "sciprep/guard/cancel.hpp"
#include "sciprep/guard/snapshot.hpp"
#include "sciprep/obs/metrics.hpp"
#include "sciprep/pipeline/dataset.hpp"
#include "sciprep/pipeline/pipeline.hpp"
#include "sciprep/serve/cache.hpp"
#include "sciprep/shard/digest.hpp"
#include "sciprep/shard/heartbeat.hpp"
#include "sciprep/sim/simgpu.hpp"

namespace sciprep::serve {

/// Committed/budget ratio at which shedding starts: sessions that would
/// land above it are admitted degraded (prefetch off, cache bypass).
inline constexpr double kDegradeWatermark = 0.75;
/// Ratio below which shedding clears; the gap to kDegradeWatermark is the
/// hysteresis band that prevents admit/degrade flapping.
inline constexpr double kRecoverWatermark = 0.5;

/// The service's overload budget. Both limits are hard; the watermarks
/// steer degradation before the hard edge.
struct ServiceLimits {
  /// Concurrently active sessions (also the heartbeat-lease slot count).
  std::size_t max_tenants = 8;
  /// In-flight decoded-bytes budget admissions are charged against; 0 means
  /// unlimited (watermarks and degradation never engage).
  std::uint64_t max_inflight_bytes = 256ull << 20;
};

struct ServiceConfig {
  ServiceLimits limits;
  /// Shared decode pool size; 0 selects the hardware concurrency.
  std::size_t worker_threads = 0;
  /// Shared decoded-sample cache; capacity_bytes 0 disables it. The cache's
  /// metrics default into the service registry.
  CacheConfig cache;
  /// Lease deadline: a session whose consumer has not called next_batch()
  /// for this long is declared lost by the next sweep_leases().
  double lease_deadline_seconds = 30.0;
  /// When non-empty, suspended sessions checkpoint here as <name>.ckpt and
  /// reattach() proves the disk round-trip; empty keeps snapshots in memory.
  std::string checkpoint_dir;
  /// Record every delivered sample into the tenant's GlobalStreamDigest
  /// (CRC over the full tensor) so isolation and reattach continuations can
  /// be proven bit-identical. Off by default — the per-sample CRC is a real
  /// fraction of a small sample's decode cost, and the healthy serving path
  /// must stay under the <1% overhead contract. Same knob as
  /// shard::ShardConfig::verify_stream.
  bool verify_stream = false;
  /// Service-level incident sink (kTenantLost / kTenantEvicted /
  /// kSessionShed, plus every tenant pipeline's recovery events, each with
  /// RecoveryEvent::scope set to the tenant name). Same contract as
  /// PipelineConfig::on_recovery_event: thread-safe, never throws.
  fault::RecoveryListener on_event;
  /// serve.* metrics land here; null means the process-global registry.
  obs::MetricsRegistry* metrics = nullptr;
};

/// One training job's ask.
struct TenantSpec {
  std::string name;
  /// The tenant's pipeline configuration. The service overrides the plumbing
  /// fields (shared_pool/pool_key/pool_weight, cancel, metrics, decode_cache)
  /// and wraps on_recovery_event to stamp the tenant scope; everything else
  /// — seed, batch size, ops, fault policy, deadlines, injector — is the
  /// tenant's own.
  pipeline::PipelineConfig pipeline;
  std::uint64_t epochs = 1;
  /// Fair-share weight on the shared pool (>= 1).
  std::uint32_t weight = 1;
};

enum class Admission : int {
  kAdmitted = 0,  // full service: prefetch + shared cache
  kDegraded,      // shed mode: prefetch off, cache bypassed
  kRejected,      // over budget / roster full
};

const char* admission_name(Admission admission) noexcept;

enum class SessionState : int {
  kActive = 0,
  kSuspended,  // lease lost; checkpointed, waiting for reattach()
  kEvicted,    // pipeline escalated; terminal
  kClosed,     // clean close_session(); terminal
};

const char* session_state_name(SessionState state) noexcept;

class DataService {
 public:
  /// The service serves `dataset` through `codec` to every tenant. `gpu` is
  /// required when any tenant decodes on kGpu placement. All three must
  /// outlive the service.
  DataService(const pipeline::InMemoryDataset& dataset,
              const codec::SampleCodec& codec, ServiceConfig config,
              sim::SimGpu* gpu = nullptr);
  ~DataService();

  DataService(const DataService&) = delete;
  DataService& operator=(const DataService&) = delete;

  struct OpenResult {
    int session = -1;  // valid when admission != kRejected
    Admission admission = Admission::kRejected;
  };

  /// Admit a tenant. kRejected leaves no session behind (the spec may be
  /// retried later); otherwise the returned session id is stable for the
  /// tenant's lifetime, across suspend/reattach. A name may be reused only
  /// after its previous session reached a terminal state.
  OpenResult open_session(TenantSpec spec);

  /// Produce `session`'s next batch, beating its lease and crossing epoch
  /// boundaries internally; false once all spec.epochs are delivered.
  /// Records every delivered sample into the tenant's stream digest. A
  /// pipeline escalation (budget exhausted, cancellation, deadline) evicts
  /// the session and rethrows to this tenant's caller only.
  bool next_batch(int session, pipeline::Batch& batch);

  /// Beat `session`'s lease without producing a batch. The wire transport
  /// pumps this from real socket liveness (BEAT frames), so a connected but
  /// momentarily idle consumer is not swept as dead.
  void beat(int session);

  /// Clean shutdown of an active session; releases its charge and slot.
  void close_session(int session);

  /// Suspend every active session whose lease expired: emit kTenantLost,
  /// checkpoint the pipeline, release the charge and slot. Returns the
  /// suspended tenant names. Call from a maintenance thread; must not race
  /// a suspended session's own consumer (a live consumer keeps its lease).
  std::vector<std::string> sweep_leases();

  /// Re-admit a suspended tenant under current pressure and resume its
  /// pipeline from the suspend checkpoint (disk when checkpoint_dir is set).
  /// On success the tenant continues bit-identically — same session id, same
  /// stream digest. kRejected leaves it suspended for a later retry.
  OpenResult reattach(const std::string& name);

  // -- Introspection ------------------------------------------------------

  [[nodiscard]] SessionState session_state(int session) const;
  /// The admission level the session is currently running at (it can change
  /// across a suspend/reattach cycle as pressure shifts).
  [[nodiscard]] Admission session_admission(int session) const;

  /// The tenant's position-keyed content digest (survives suspend/eviction;
  /// see shard::GlobalStreamDigest for the bit-identity contract). Empty
  /// unless ServiceConfig::verify_stream is set.
  [[nodiscard]] const shard::GlobalStreamDigest& digest(int session) const;
  /// The tenant's private pipeline metrics registry.
  [[nodiscard]] obs::MetricsRegistry& tenant_metrics(int session) const;
  /// Point-in-time copy of that registry — the federation unit: the wire
  /// STATS frame ships deltas of this snapshot and flow::merge_fleet()
  /// accumulates them back into per-tenant totals.
  [[nodiscard]] obs::MetricsSnapshot tenant_snapshot(int session) const;

  [[nodiscard]] std::uint64_t committed_bytes() const;
  [[nodiscard]] bool shedding() const;
  /// Stable hash of the serving surface (dataset shape, codec, lease
  /// deadline, stream verification). The wire handshake carries it so a
  /// reconnecting client can prove it is resuming against the same service
  /// configuration it first attached to, not a restarted look-alike.
  [[nodiscard]] std::uint64_t config_fingerprint() const noexcept {
    return fingerprint_;
  }
  [[nodiscard]] double lease_deadline_seconds() const noexcept {
    return config_.lease_deadline_seconds;
  }
  /// Admission charge probe: decoded bytes of sample 0 (what one in-flight
  /// sample costs resident).
  [[nodiscard]] std::uint64_t probe_sample_bytes() const noexcept {
    return probe_bytes_;
  }
  [[nodiscard]] SampleCache& cache() noexcept { return cache_; }
  [[nodiscard]] ThreadPool& pool() noexcept { return pool_; }
  [[nodiscard]] obs::MetricsRegistry& metrics() const noexcept {
    return *metrics_;
  }

 private:
  struct Tenant {
    TenantSpec spec;
    SessionState state = SessionState::kActive;
    Admission admission = Admission::kAdmitted;
    int slot = -1;              // lease slot while active
    std::uint64_t charge = 0;   // committed bytes while active
    std::uint64_t next_epoch = 0;  // first epoch not yet started
    bool epoch_open = false;
    guard::CancelToken token;   // service-owned cancellation root
    std::unique_ptr<obs::MetricsRegistry> metrics;
    std::unique_ptr<TenantCacheView> cache_view;
    std::unique_ptr<pipeline::DataPipeline> pipeline;
    shard::GlobalStreamDigest digest;
    std::optional<guard::Snapshot> suspend_snapshot;
  };

  /// Deterministic in-flight-bytes estimate for a session.
  [[nodiscard]] std::uint64_t session_charge(const TenantSpec& spec,
                                             bool prefetch) const;
  /// The admission decision against the current ledger. Mutates only
  /// shedding_ (watermark crossing). Caller holds mutex_.
  [[nodiscard]] Admission admit_locked(const TenantSpec& spec);
  /// Build + wire the tenant's pipeline for its admission level and resume
  /// it from `from` when set. Caller holds mutex_.
  void activate_locked(Tenant& tenant, int session, Admission admission,
                       const guard::Snapshot* from);
  /// Tear down an active tenant's pipeline/slot/charge. Caller holds mutex_.
  void release_locked(Tenant& tenant);
  void emit_event(fault::EventKind kind, const std::string& tenant,
                  std::string detail) const;
  [[nodiscard]] Tenant& tenant_checked(int session) const;
  [[nodiscard]] std::string checkpoint_path(const Tenant& tenant) const;

  const pipeline::InMemoryDataset& dataset_;
  const codec::SampleCodec& codec_;
  ServiceConfig config_;
  sim::SimGpu* gpu_;
  obs::MetricsRegistry* metrics_;
  fault::Injector probe_injector_;  // zero-probability; masks any global one
  std::uint64_t probe_bytes_ = 0;
  std::uint64_t fingerprint_ = 0;

  // Declared before the pool so the workers (who call the observer) are
  // joined before the observer dies.
  obs::PoolMetrics pool_metrics_;  // serve.pool.*
  ThreadPool pool_;
  SampleCache cache_;
  shard::HeartbeatMonitor leases_;

  obs::Counter& admitted_total_;
  obs::Counter& degraded_total_;
  obs::Counter& rejected_total_;
  obs::Counter& evicted_total_;
  obs::Counter& suspended_total_;
  obs::Counter& reattached_total_;
  obs::Counter& batches_served_;
  obs::Gauge& committed_gauge_;
  obs::Gauge& shedding_gauge_;
  obs::Gauge& active_gauge_;

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Tenant>> tenants_;
  std::vector<int> free_slots_;  // lease slots available for new sessions
  std::uint64_t committed_ = 0;  // sum of active charges
  bool shedding_ = false;
};

}  // namespace sciprep::serve
