#include "sciprep/serve/service.hpp"

#include <algorithm>
#include <bit>
#include <filesystem>
#include <utility>

#include "sciprep/common/crc.hpp"
#include "sciprep/common/error.hpp"
#include "sciprep/common/log.hpp"
#include "sciprep/common/rng.hpp"

namespace sciprep::serve {

namespace {

obs::MetricsRegistry& resolve(obs::MetricsRegistry* metrics) {
  return metrics != nullptr ? *metrics : obs::MetricsRegistry::global();
}

}  // namespace

const char* admission_name(Admission admission) noexcept {
  switch (admission) {
    case Admission::kAdmitted:
      return "admitted";
    case Admission::kDegraded:
      return "degraded";
    case Admission::kRejected:
      return "rejected";
  }
  return "?";
}

const char* session_state_name(SessionState state) noexcept {
  switch (state) {
    case SessionState::kActive:
      return "active";
    case SessionState::kSuspended:
      return "suspended";
    case SessionState::kEvicted:
      return "evicted";
    case SessionState::kClosed:
      return "closed";
  }
  return "?";
}

DataService::DataService(const pipeline::InMemoryDataset& dataset,
                         const codec::SampleCodec& codec, ServiceConfig config,
                         sim::SimGpu* gpu)
    : dataset_(dataset),
      codec_(codec),
      config_(std::move(config)),
      gpu_(gpu),
      metrics_(&resolve(config_.metrics)),
      probe_injector_(1, metrics_),
      pool_metrics_(*metrics_, "serve.pool"),
      pool_(config_.worker_threads),
      cache_([this] {
        CacheConfig c = config_.cache;
        if (c.metrics == nullptr) c.metrics = metrics_;
        return c;
      }()),
      leases_(static_cast<int>(std::max<std::size_t>(1,
                                                     config_.limits.max_tenants)),
              config_.lease_deadline_seconds, metrics_),
      admitted_total_(metrics_->counter("serve.sessions_admitted_total")),
      degraded_total_(metrics_->counter("serve.sessions_degraded_total")),
      rejected_total_(metrics_->counter("serve.sessions_rejected_total")),
      evicted_total_(metrics_->counter("serve.sessions_evicted_total")),
      suspended_total_(metrics_->counter("serve.sessions_suspended_total")),
      reattached_total_(metrics_->counter("serve.sessions_reattached_total")),
      batches_served_(metrics_->counter("serve.batches_served_total")),
      committed_gauge_(metrics_->gauge("serve.committed_bytes")),
      shedding_gauge_(metrics_->gauge("serve.shedding")),
      active_gauge_(metrics_->gauge("serve.active_sessions")) {
  const ServiceLimits& limits = config_.limits;
  if (limits.max_tenants < 1) {
    throw ConfigError("serve: max_tenants must be >= 1");
  }
  if (!config_.checkpoint_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(config_.checkpoint_dir, ec);
    if (ec) {
      throw IoError(fmt("serve: cannot create checkpoint dir '{}': {}",
                        config_.checkpoint_dir, ec.message()));
    }
  }
  pool_.set_observer(&pool_metrics_);
  // Admission charges are keyed to what one in-flight sample actually costs
  // resident: probe-decode sample 0 once, through a zero-probability local
  // injector so a process-global injector cannot perturb the measurement.
  if (dataset_.size() > 0) {
    pipeline::PipelineConfig probe;
    probe.batch_size = 1;
    probe.shuffle = false;
    probe.prefetch = false;
    probe.injector = &probe_injector_;
    probe.shared_pool = &pool_;
    const pipeline::DataPipeline probe_pipeline(dataset_, codec_, probe, gpu_);
    probe_bytes_ = tensor_bytes(probe_pipeline.decode_sample(0));
  }
  free_slots_.reserve(limits.max_tenants);
  for (std::size_t slot = limits.max_tenants; slot > 0; --slot) {
    free_slots_.push_back(static_cast<int>(slot - 1));
  }
  // The wire handshake's identity: everything that decides what bytes a
  // tenant's stream contains. Two services agree on the fingerprint exactly
  // when a session could migrate between them bit-identically.
  std::uint64_t fp = 0x73637770u;  // arbitrary non-zero anchor ("scwp")
  const auto mix = [&fp](std::uint64_t v) {
    std::uint64_t state = fp ^ v;
    fp = splitmix64(state);
  };
  mix(dataset_.size());
  mix(dataset_.mean_sample_bytes());
  mix(crc32c(as_bytes(codec_.name())));
  mix(std::bit_cast<std::uint64_t>(config_.lease_deadline_seconds));
  mix(config_.verify_stream ? 1 : 0);
  mix(probe_bytes_);
  fingerprint_ = fp != 0 ? fp : 1;  // 0 is the wire's "first contact" marker
}

DataService::~DataService() {
  {
    std::lock_guard lock(mutex_);
    for (auto& tenant : tenants_) {
      if (tenant->state == SessionState::kActive) {
        tenant->token.cancel("service shutdown");
      }
    }
    // Pipeline destructors drain their in-flight work on the shared pool, so
    // after this loop the pool is quiet and safe to tear down.
    for (auto& tenant : tenants_) {
      tenant->pipeline.reset();
      tenant->cache_view.reset();
    }
  }
  pool_.wait_idle();
  pool_.set_observer(nullptr);
}

std::uint64_t DataService::session_charge(const TenantSpec& spec,
                                          bool prefetch) const {
  const std::uint64_t per_sample =
      probe_bytes_ > 0 ? probe_bytes_ : dataset_.mean_sample_bytes();
  const std::uint64_t batch =
      static_cast<std::uint64_t>(std::max(1, spec.pipeline.batch_size));
  // Prefetch overlaps the next batch's decode with the consumer, so two
  // batches are resident at once.
  return batch * per_sample * (prefetch ? 2 : 1);
}

Admission DataService::admit_locked(const TenantSpec& spec) {
  const ServiceLimits& limits = config_.limits;
  if (free_slots_.empty()) return Admission::kRejected;
  if (limits.max_inflight_bytes == 0) return Admission::kAdmitted;
  const std::uint64_t full = session_charge(spec, spec.pipeline.prefetch);
  const double full_ratio =
      static_cast<double>(committed_ + full) /
      static_cast<double>(limits.max_inflight_bytes);
  if (!shedding_ && full_ratio <= kDegradeWatermark) {
    return Admission::kAdmitted;
  }
  if (full_ratio > kDegradeWatermark && !shedding_) {
    shedding_ = true;
    shedding_gauge_.set(1);
  }
  const std::uint64_t degraded = session_charge(spec, false);
  return committed_ + degraded <= limits.max_inflight_bytes
             ? Admission::kDegraded
             : Admission::kRejected;
}

void DataService::activate_locked(Tenant& tenant, int session,
                                  Admission admission,
                                  const guard::Snapshot* from) {
  tenant.admission = admission;
  const bool degraded = admission == Admission::kDegraded;
  // Child of the caller's token (fresh root when none): the tenant can still
  // be cancelled from outside, and the service cancels its side on eviction
  // without touching the caller's tree.
  tenant.token = tenant.spec.pipeline.cancel.child();
  if (!tenant.metrics || from != nullptr) {
    // resume() re-adds the snapshot's delivered-counter deltas on the
    // assumption of a fresh (post-crash) registry, so a reattach starts one:
    // the tenant's exact-once accounting then spans the suspend.
    tenant.metrics = std::make_unique<obs::MetricsRegistry>();
  }

  pipeline::PipelineConfig cfg = tenant.spec.pipeline;
  cfg.shared_pool = &pool_;
  cfg.pool_key = static_cast<std::uint64_t>(session);
  cfg.pool_weight = std::max<std::uint32_t>(1, tenant.spec.weight);
  cfg.cancel = tenant.token;
  cfg.metrics = tenant.metrics.get();
  if (degraded) cfg.prefetch = false;

  // The shared cache is only bit-transparent when a sample's decode is a
  // pure function of its id — any fault injection (per-pipeline or global)
  // breaks that, and degraded sessions bypass the cache by design. Content
  // key = decode placement: CPU and simulated-GPU decoders never share
  // entries.
  const bool cache_ok = !degraded && config_.cache.capacity_bytes > 0 &&
                        cfg.injector == nullptr &&
                        fault::Injector::global() == nullptr;
  if (cache_ok) {
    tenant.cache_view = std::make_unique<TenantCacheView>(
        cache_, static_cast<std::uint64_t>(cfg.decode_placement),
        static_cast<std::uint64_t>(session));
    cfg.decode_cache = tenant.cache_view.get();
  } else {
    tenant.cache_view.reset();
    cfg.decode_cache = nullptr;
  }

  // Stamp the tenant's name as the event scope so flight-recorder rate
  // limits and incident files attribute every recovery event to the tenant.
  const std::string name = tenant.spec.name;
  const fault::RecoveryListener user = tenant.spec.pipeline.on_recovery_event;
  const fault::RecoveryListener svc = config_.on_event;
  if (user || svc) {
    cfg.on_recovery_event = [name, user, svc](const fault::RecoveryEvent& event) {
      fault::RecoveryEvent scoped = event;
      if (scoped.scope.empty()) scoped.scope = name;
      if (user) user(scoped);
      if (svc) svc(scoped);
    };
  } else {
    cfg.on_recovery_event = nullptr;
  }

  tenant.charge = session_charge(tenant.spec, cfg.prefetch);
  committed_ += tenant.charge;
  committed_gauge_.set(static_cast<std::int64_t>(committed_));

  tenant.pipeline =
      std::make_unique<pipeline::DataPipeline>(dataset_, codec_, cfg, gpu_);
  if (from != nullptr) {
    tenant.pipeline->resume(*from);
    // The snapshot's epoch is mid-flight: it is the open epoch, and
    // next_batch()'s exhaustion path advances past it (invariant: while
    // epoch_open, next_epoch names the open epoch).
    tenant.next_epoch = from->epoch;
    tenant.epoch_open = true;
  }

  tenant.slot = free_slots_.back();
  free_slots_.pop_back();
  tenant.state = SessionState::kActive;
  leases_.beat(tenant.slot);
  active_gauge_.add(1);
}

void DataService::release_locked(Tenant& tenant) {
  tenant.pipeline.reset();
  tenant.cache_view.reset();
  if (tenant.slot >= 0) {
    leases_.pause(tenant.slot);
    free_slots_.push_back(tenant.slot);
    tenant.slot = -1;
  }
  committed_ -= std::min(committed_, tenant.charge);
  tenant.charge = 0;
  committed_gauge_.set(static_cast<std::int64_t>(committed_));
  active_gauge_.add(-1);
  if (shedding_ && config_.limits.max_inflight_bytes > 0 &&
      static_cast<double>(committed_) /
              static_cast<double>(config_.limits.max_inflight_bytes) <
          kRecoverWatermark) {
    shedding_ = false;
    shedding_gauge_.set(0);
  }
}

void DataService::emit_event(fault::EventKind kind, const std::string& tenant,
                             std::string detail) const {
  if (!config_.on_event) return;
  fault::RecoveryEvent event;
  event.kind = kind;
  event.stage = "serve";
  event.detail = std::move(detail);
  event.scope = tenant;
  config_.on_event(event);
}

DataService::Tenant& DataService::tenant_checked(int session) const {
  if (session < 0 || static_cast<std::size_t>(session) >= tenants_.size()) {
    throw ConfigError(fmt("serve: unknown session {}", session));
  }
  return *tenants_[static_cast<std::size_t>(session)];
}

std::string DataService::checkpoint_path(const Tenant& tenant) const {
  return fmt("{}/{}.ckpt", config_.checkpoint_dir, tenant.spec.name);
}

DataService::OpenResult DataService::open_session(TenantSpec spec) {
  std::lock_guard lock(mutex_);
  if (spec.name.empty()) {
    throw ConfigError("serve: tenant name must be non-empty");
  }
  for (const auto& tenant : tenants_) {
    if (tenant->spec.name == spec.name &&
        (tenant->state == SessionState::kActive ||
         tenant->state == SessionState::kSuspended)) {
      throw ConfigError(
          fmt("serve: tenant '{}' already has a live session", spec.name));
    }
  }
  const Admission admission = admit_locked(spec);
  if (admission == Admission::kRejected) {
    rejected_total_.add(1);
    emit_event(fault::EventKind::kSessionShed, spec.name,
               fmt("admission rejected: committed {} of {} bytes, {} slots "
                   "free, queue depth {}",
                   committed_, config_.limits.max_inflight_bytes,
                   free_slots_.size(), pool_.queue_depth()));
    return {-1, Admission::kRejected};
  }
  const int session = static_cast<int>(tenants_.size());
  auto tenant = std::make_unique<Tenant>();
  tenant->spec = std::move(spec);
  activate_locked(*tenant, session, admission, nullptr);
  if (admission == Admission::kDegraded) {
    degraded_total_.add(1);
    emit_event(fault::EventKind::kSessionShed, tenant->spec.name,
               fmt("admitted degraded: committed {} of {} bytes, shedding",
                   committed_, config_.limits.max_inflight_bytes));
  } else {
    admitted_total_.add(1);
  }
  tenants_.push_back(std::move(tenant));
  return {session, admission};
}

bool DataService::next_batch(int session, pipeline::Batch& batch) {
  Tenant* tenant = nullptr;
  {
    std::lock_guard lock(mutex_);
    tenant = &tenant_checked(session);
    if (tenant->state != SessionState::kActive) {
      throw ConfigError(fmt("serve: session {} ('{}') is {}, not active",
                            session, tenant->spec.name,
                            session_state_name(tenant->state)));
    }
    leases_.beat(tenant->slot);
  }
  try {
    for (;;) {
      if (!tenant->epoch_open) {
        if (tenant->next_epoch >= tenant->spec.epochs) return false;
        tenant->pipeline->start_epoch(tenant->next_epoch);
        tenant->epoch_open = true;
      }
      if (tenant->pipeline->next_batch(batch)) {
        if (config_.verify_stream) {
          for (std::size_t i = 0; i < batch.samples.size(); ++i) {
            tenant->digest.record(batch.epoch, batch.order_positions[i],
                                  shard::sample_crc(batch.samples[i]));
          }
        }
        batches_served_.add(1);
        return true;
      }
      tenant->epoch_open = false;
      tenant->next_epoch += 1;
    }
  } catch (const std::exception& e) {
    // The escalation is this tenant's alone: cancel its tree, release its
    // charge and cache working set, and rethrow to its caller only.
    std::lock_guard lock(mutex_);
    if (tenant->state == SessionState::kActive) {
      emit_event(fault::EventKind::kTenantEvicted, tenant->spec.name,
                 fmt("pipeline escalated: {}", e.what()));
      tenant->token.cancel("tenant evicted");
      release_locked(*tenant);
      cache_.drop_tenant(static_cast<std::uint64_t>(session));
      tenant->state = SessionState::kEvicted;
      evicted_total_.add(1);
    }
    throw;
  }
}

void DataService::beat(int session) {
  std::lock_guard lock(mutex_);
  Tenant& tenant = tenant_checked(session);
  if (tenant.state != SessionState::kActive) {
    throw ConfigError(fmt("serve: cannot beat session {} ('{}'): {}", session,
                          tenant.spec.name, session_state_name(tenant.state)));
  }
  leases_.beat(tenant.slot);
}

void DataService::close_session(int session) {
  std::lock_guard lock(mutex_);
  Tenant& tenant = tenant_checked(session);
  if (tenant.state != SessionState::kActive) {
    throw ConfigError(fmt("serve: cannot close session {} ('{}'): {}", session,
                          tenant.spec.name,
                          session_state_name(tenant.state)));
  }
  release_locked(tenant);
  tenant.state = SessionState::kClosed;
}

std::vector<std::string> DataService::sweep_leases() {
  std::lock_guard lock(mutex_);
  std::vector<std::string> suspended;
  for (auto& entry : tenants_) {
    Tenant& tenant = *entry;
    if (tenant.state != SessionState::kActive || !leases_.lost(tenant.slot)) {
      continue;
    }
    emit_event(fault::EventKind::kTenantLost, tenant.spec.name,
               fmt("lease expired after {:.3f}s; session suspended",
                   config_.lease_deadline_seconds));
    // The consumer is gone, so no next_batch() races this: quiesce the
    // pipeline into a delivered-batch-boundary snapshot and free everything
    // the session held. resume() re-produces the parked prefetch batch
    // bit-identically.
    guard::Snapshot snapshot = tenant.pipeline->snapshot();
    if (!config_.checkpoint_dir.empty()) {
      guard::write_snapshot(checkpoint_path(tenant), snapshot);
    }
    tenant.suspend_snapshot = std::move(snapshot);
    release_locked(tenant);
    tenant.state = SessionState::kSuspended;
    suspended_total_.add(1);
    suspended.push_back(tenant.spec.name);
  }
  return suspended;
}

DataService::OpenResult DataService::reattach(const std::string& name) {
  std::lock_guard lock(mutex_);
  int session = -1;
  for (std::size_t i = tenants_.size(); i > 0; --i) {
    if (tenants_[i - 1]->spec.name == name) {
      session = static_cast<int>(i - 1);
      break;
    }
  }
  if (session < 0) {
    throw ConfigError(fmt("serve: no session for tenant '{}'", name));
  }
  Tenant& tenant = *tenants_[static_cast<std::size_t>(session)];
  if (tenant.state != SessionState::kSuspended) {
    throw ConfigError(fmt("serve: tenant '{}' is {}, not suspended", name,
                          session_state_name(tenant.state)));
  }
  // Prefer the disk checkpoint when one was written: reattach then proves
  // the full serialize/parse round-trip, not just in-memory state.
  const guard::Snapshot snapshot =
      !config_.checkpoint_dir.empty()
          ? guard::read_snapshot(checkpoint_path(tenant))
          : (tenant.suspend_snapshot.has_value()
                 ? *tenant.suspend_snapshot
                 : throw ConfigError(fmt(
                       "serve: tenant '{}' has no suspend checkpoint", name)));
  const Admission admission = admit_locked(tenant.spec);
  if (admission == Admission::kRejected) {
    rejected_total_.add(1);
    emit_event(fault::EventKind::kSessionShed, name,
               fmt("reattach rejected: committed {} of {} bytes", committed_,
                   config_.limits.max_inflight_bytes));
    return {session, Admission::kRejected};
  }
  activate_locked(tenant, session, admission, &snapshot);
  if (admission == Admission::kDegraded) {
    degraded_total_.add(1);
    emit_event(fault::EventKind::kSessionShed, name,
               "reattached degraded: shedding");
  } else {
    admitted_total_.add(1);
  }
  reattached_total_.add(1);
  tenant.suspend_snapshot.reset();
  return {session, admission};
}

SessionState DataService::session_state(int session) const {
  std::lock_guard lock(mutex_);
  return tenant_checked(session).state;
}

Admission DataService::session_admission(int session) const {
  std::lock_guard lock(mutex_);
  return tenant_checked(session).admission;
}

const shard::GlobalStreamDigest& DataService::digest(int session) const {
  std::lock_guard lock(mutex_);
  return tenant_checked(session).digest;
}

obs::MetricsRegistry& DataService::tenant_metrics(int session) const {
  std::lock_guard lock(mutex_);
  Tenant& tenant = tenant_checked(session);
  if (!tenant.metrics) {
    throw ConfigError(
        fmt("serve: session {} has no metrics registry yet", session));
  }
  return *tenant.metrics;
}

obs::MetricsSnapshot DataService::tenant_snapshot(int session) const {
  return tenant_metrics(session).snapshot();
}

std::uint64_t DataService::committed_bytes() const {
  std::lock_guard lock(mutex_);
  return committed_;
}

bool DataService::shedding() const {
  std::lock_guard lock(mutex_);
  return shedding_;
}

}  // namespace sciprep::serve
