#include "sciprep/shard/coordinator.hpp"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "sciprep/common/error.hpp"
#include "sciprep/guard/snapshot.hpp"

namespace sciprep::shard {

namespace {

// Fault-site operation keys for rank-level sites. Keyed by (epoch, rank,
// per-rank ordinal) — pure functions of run configuration, so which beat is
// suppressed / which batch crashes reproduces across runs regardless of
// detection timing or interleaving.
std::uint64_t rank_op(std::uint64_t epoch, int rank, std::uint64_t ordinal) {
  return (epoch << 32) ^ (static_cast<std::uint64_t>(rank) << 20) ^ ordinal;
}

}  // namespace

ShardCoordinator::ShardCoordinator(const pipeline::InMemoryDataset& dataset,
                                   const codec::SampleCodec& codec,
                                   ShardConfig config)
    : config_(std::move(config)),
      dataset_(dataset),
      owned_metrics_(config_.metrics != nullptr
                         ? nullptr
                         : std::make_unique<obs::MetricsRegistry>()),
      metrics_(config_.metrics != nullptr ? config_.metrics
                                          : owned_metrics_.get()),
      ranks_lost_total_(&metrics_->counter("shard.ranks_lost_total")),
      reshards_total_(&metrics_->counter("shard.reshards_total")),
      resharded_samples_total_(
          &metrics_->counter("shard.resharded_samples_total")),
      checkpoints_total_(&metrics_->counter("shard.checkpoints_total")),
      checkpoints_skipped_total_(
          &metrics_->counter("shard.checkpoints_skipped_total")),
      staged_bytes_total_(&metrics_->counter("shard.staged_bytes_total")) {
  if (config_.world < 1) {
    throw ConfigError(fmt("shard: world size {} must be >= 1", config_.world));
  }
  monitor_ = std::make_unique<HeartbeatMonitor>(
      config_.world, config_.heartbeat_deadline_seconds, metrics_);
  build_ranks(dataset, codec);
  start_epoch(0);
}

ShardCoordinator::~ShardCoordinator() = default;

void ShardCoordinator::build_ranks(const pipeline::InMemoryDataset& dataset,
                                   const codec::SampleCodec& codec) {
  const bool gpu_placement =
      config_.pipeline.decode_placement == codec::Placement::kGpu;
  if (gpu_placement && !config_.gpu_factory) {
    throw ConfigError(
        "shard: GPU placement needs a gpu_factory (one simulated device per "
        "rank)");
  }
  std::vector<int> all_ranks(static_cast<std::size_t>(config_.world));
  for (int i = 0; i < config_.world; ++i) all_ranks[static_cast<std::size_t>(i)] = i;

  // Two passes: the Rank entries (ids + liveness) must all exist before the
  // first pipeline constructor runs, because constructing a pipeline calls
  // the epoch_order provider, which plans over alive_ids().
  ranks_.resize(static_cast<std::size_t>(config_.world));
  for (int i = 0; i < config_.world; ++i) {
    ranks_[static_cast<std::size_t>(i)].id = i;
  }
  for (Rank& rank : ranks_) {
    rank.registry = std::make_unique<obs::MetricsRegistry>();
    if (config_.staged) {
      // Node-local staging: the rank reads its own dataset replica. Sample
      // storage is shared underneath (shared_ptr), but the placement is
      // accounted — this is the paper's staged/unstaged axis.
      rank.staged = std::make_unique<pipeline::InMemoryDataset>(dataset);
      staged_bytes_total_->add(dataset.total_bytes());
    }
    if (gpu_placement) {
      rank.gpu = config_.gpu_factory(rank.id);
      if (rank.gpu == nullptr) {
        throw ConfigError(
            fmt("shard: gpu_factory returned null for rank {}", rank.id));
      }
    }
    pipeline::PipelineConfig cfg = config_.pipeline;
    cfg.metrics = rank.registry.get();
    cfg.epoch_order = [this, id = rank.id](std::uint64_t epoch) {
      return plan_local_order(id, epoch);
    };
    cfg.order_fingerprint = order_fingerprint(
        all_ranks, rank.id, config_.pipeline.seed, config_.pipeline.shuffle,
        config_.staged);
    if (config_.on_event) {
      fault::RecoveryListener sink = config_.on_event;
      const int id = rank.id;
      cfg.on_recovery_event = [sink, id](const fault::RecoveryEvent& event) {
        fault::RecoveryEvent scoped = event;
        if (scoped.scope.empty()) scoped.scope = fmt("rank{}", id);
        sink(scoped);
      };
    }
    const pipeline::InMemoryDataset& store =
        config_.staged ? *rank.staged : dataset_;
    rank.pipe = std::make_unique<pipeline::DataPipeline>(store, codec, cfg,
                                                         rank.gpu.get());
  }
}

std::vector<int> ShardCoordinator::alive_ids() const {
  std::vector<int> ids;
  ids.reserve(ranks_.size());
  for (const Rank& rank : ranks_) {
    if (rank.alive) ids.push_back(rank.id);
  }
  return ids;
}

void ShardCoordinator::ensure_plan(std::uint64_t epoch) {
  if (plan_ && plan_->epoch == epoch) return;
  plan_ = ShardPlan::build(dataset_.size(), alive_ids(), config_.pipeline.seed,
                           epoch, config_.pipeline.shuffle);
}

std::vector<std::size_t> ShardCoordinator::plan_local_order(
    int rank, std::uint64_t epoch) {
  ensure_plan(epoch);
  const int slot = plan_->slot_of(rank);
  if (slot < 0) {
    throw ConfigError(
        fmt("shard: rank {} does not participate in epoch {}", rank, epoch));
  }
  return plan_->local_order(static_cast<std::size_t>(slot));
}

void ShardCoordinator::start_epoch(std::uint64_t epoch) {
  epoch_ = epoch;
  rotor_ = 0;
  epoch_dirty_ = false;
  plan_.reset();
  ensure_plan(epoch);
  for (Rank& rank : ranks_) {
    if (!rank.alive) continue;
    rank.pipe->start_epoch(epoch);
    const auto slot = static_cast<std::size_t>(plan_->slot_of(rank.id));
    rank.local_ids = plan_->local_order(slot);
    rank.global_pos = plan_->global_positions(slot);
    rank.exhausted = rank.local_ids.empty();
    rank.silent = false;
    rank.beats = 0;
    rank.local_batches = 0;
    // The epoch-start snapshot is the default rollback anchor: a rank that
    // dies before any checkpoint re-delivers its whole shard via survivors.
    rank.anchor = rank.pipe->snapshot();
  }
}

void ShardCoordinator::emit(fault::EventKind kind, int rank,
                            std::string detail) {
  if (!config_.on_event) return;
  fault::RecoveryEvent event;
  event.kind = kind;
  event.stage = "shard";
  event.detail = std::move(detail);
  event.scope = fmt("rank{}", rank);
  config_.on_event(event);
}

void ShardCoordinator::kill_rank(int rank) {
  if (rank < 0 || rank >= config_.world) {
    throw ConfigError(fmt("shard: kill_rank({}) outside world {}", rank,
                          config_.world));
  }
  recover_rank(rank, "killed");
}

void ShardCoordinator::recover_rank(int rank, const char* cause) {
  Rank& dead = ranks_.at(static_cast<std::size_t>(rank));
  if (!dead.alive) return;
  dead.alive = false;
  dead.silent = false;
  monitor_->retire(rank);
  ranks_lost_total_->add(1);
  epoch_dirty_ = true;
  emit(fault::EventKind::kRankLost, rank,
       fmt("rank {} lost mid-epoch {}: {}", rank, epoch_, cause));
  // Simulated process death: drop the pipeline (joins its workers, abandons
  // its prefetch). The registry stays — its retry counters are real spent
  // wall clock — but delivered-data accounting rolls back to the anchor.
  dead.pipe.reset();
  if (!config_.elastic) {
    throw Error(fmt(
        "shard: rank {} lost ({}) and elastic resharding is disabled", rank,
        cause));
  }

  // Undelivered remainder measured from the rollback anchor, not the death
  // point: anything delivered after the last checkpoint is re-delivered by
  // the survivors (and rolled out of the dead rank's aggregate contribution
  // by aggregate(), so the stream accounting stays exact-once).
  const std::size_t from = static_cast<std::size_t>(dead.anchor.cursor);
  SCIPREP_ASSERT(from <= dead.local_ids.size());
  const std::size_t remainder = dead.local_ids.size() - from;
  if (remainder == 0) return;

  std::vector<Rank*> survivors;
  for (Rank& rank_ref : ranks_) {
    if (rank_ref.alive) survivors.push_back(&rank_ref);
  }
  if (survivors.empty()) {
    throw Error(fmt(
        "shard: rank {} lost ({}) with no survivors to re-shard onto", rank,
        cause));
  }
  reshards_total_->add(1);
  resharded_samples_total_->add(remainder);
  const std::size_t k = survivors.size();
  for (std::size_t s = 0; s < k; ++s) {
    const std::size_t lo = from + remainder * s / k;
    const std::size_t hi = from + remainder * (s + 1) / k;
    if (lo == hi) continue;
    Rank& surv = *survivors[s];
    const std::vector<std::size_t> tail(
        dead.local_ids.begin() + static_cast<std::ptrdiff_t>(lo),
        dead.local_ids.begin() + static_cast<std::ptrdiff_t>(hi));
    surv.pipe->extend_epoch_order(tail);
    surv.local_ids.insert(surv.local_ids.end(), tail.begin(), tail.end());
    surv.global_pos.insert(
        surv.global_pos.end(),
        dead.global_pos.begin() + static_cast<std::ptrdiff_t>(lo),
        dead.global_pos.begin() + static_cast<std::ptrdiff_t>(hi));
    surv.exhausted = false;
    emit(fault::EventKind::kReshard, surv.id,
         fmt("rank {} adopted {} samples [{}..{}) of dead rank {}'s shard",
             surv.id, hi - lo, lo, hi, rank));
  }
}

void ShardCoordinator::harvest_lost() {
  for (Rank& rank : ranks_) {
    if (rank.alive && rank.silent && monitor_->lost(rank.id)) {
      recover_rank(rank.id, "heartbeat deadline expired");
    }
  }
}

void ShardCoordinator::await_detection() {
  // Only silent ranks can still matter; block until the watchdog declares
  // them (bounded — a silent rank's deadline is already ticking).
  const auto give_up =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(
              2 * config_.heartbeat_deadline_seconds + 1.0));
  for (;;) {
    harvest_lost();
    bool any_silent = false;
    for (const Rank& rank : ranks_) {
      any_silent = any_silent || (rank.alive && rank.silent);
    }
    if (!any_silent) return;
    if (std::chrono::steady_clock::now() >= give_up) {
      // Failsafe: the watchdog should have fired long ago. Declare the
      // ranks lost rather than hanging the epoch.
      for (Rank& rank : ranks_) {
        if (rank.alive && rank.silent) {
          recover_rank(rank.id, "heartbeat silent (detection forced)");
        }
      }
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

bool ShardCoordinator::step(ShardBatch& out) {
  fault::Injector* injector = config_.pipeline.injector != nullptr
                                  ? config_.pipeline.injector
                                  : fault::Injector::global();
  for (;;) {
    harvest_lost();
    Rank* next = nullptr;
    for (std::size_t probe = 0; probe < ranks_.size(); ++probe) {
      Rank& cand = ranks_[(rotor_ + probe) % ranks_.size()];
      if (cand.alive && !cand.silent && !cand.exhausted) {
        next = &cand;
        rotor_ = (rotor_ + probe + 1) % ranks_.size();
        break;
      }
    }
    if (next == nullptr) {
      bool any_silent = false;
      for (const Rank& rank : ranks_) {
        any_silent = any_silent || (rank.alive && rank.silent);
      }
      if (any_silent) {
        await_detection();
        continue;  // re-sharding may have un-exhausted a survivor
      }
      return false;  // epoch complete
    }

    Rank& rank = *next;
    if (injector != nullptr) {
      // The rank's liveness beat goes out through the rank.heartbeat fault
      // site; a transient there means the beat was lost — the rank falls
      // silent and its armed deadline will out it.
      try {
        injector->on_operation(fault::Site::kRankHeartbeat,
                               rank_op(epoch_, rank.id, rank.beats));
      } catch (const TransientError&) {
        ++rank.beats;
        rank.silent = true;
        continue;
      }
    }
    ++rank.beats;
    monitor_->beat(rank.id);

    pipeline::Batch batch;
    if (!rank.pipe->next_batch(batch)) {
      rank.exhausted = true;
      monitor_->pause(rank.id);
      continue;
    }

    if (injector != nullptr) {
      // Mid-batch crash: the batch was assembled but the rank dies before
      // handing it to the consumer — it is discarded and its samples are
      // re-delivered by the survivors from the rank's rollback anchor.
      try {
        injector->on_operation(fault::Site::kRankCrash,
                               rank_op(epoch_, rank.id, rank.local_batches));
      } catch (const TransientError&) {
        ++rank.local_batches;
        recover_rank(rank.id, "injected mid-batch crash");
        continue;
      }
    }
    ++rank.local_batches;

    out.rank = rank.id;
    out.global_positions.clear();
    out.global_positions.reserve(batch.order_positions.size());
    for (const std::uint64_t local : batch.order_positions) {
      out.global_positions.push_back(
          rank.global_pos.at(static_cast<std::size_t>(local)));
    }
    if (config_.verify_stream) {
      for (std::size_t i = 0; i < batch.samples.size(); ++i) {
        digest_.record(batch.epoch, out.global_positions[i],
                       sample_crc(batch.samples[i]));
      }
    }
    out.batch = std::move(batch);
    ++delivered_batches_;
    if (config_.checkpoint_every_batches > 0 &&
        delivered_batches_ % config_.checkpoint_every_batches == 0) {
      checkpoint();
    }
    return true;
  }
}

void ShardCoordinator::checkpoint() {
  checkpoints_total_->add(1);
  for (Rank& rank : ranks_) {
    if (rank.alive) rank.anchor = rank.pipe->snapshot();
  }
  if (config_.checkpoint_dir.empty()) return;
  // On-disk coordinated sets must describe a state a *fresh* world can
  // rebuild from (seed, epoch, full participant list). After a death or an
  // intra-epoch extension that stops holding, so persistence pauses until
  // the next clean epoch boundary; the in-memory anchors above still
  // advance, so recovery rollback stays tight.
  if (epoch_dirty_ || alive_count() != config_.world) {
    checkpoints_skipped_total_->add(1);
    return;
  }
  for (Rank& rank : ranks_) {
    guard::write_rank_snapshot(config_.checkpoint_dir, rank.id, rank.anchor);
  }
}

void ShardCoordinator::resume(const std::string& dir) {
  const std::vector<guard::Snapshot> set =
      guard::read_coordinated(dir, config_.world);
  for (Rank& rank : ranks_) {
    if (!rank.alive || rank.pipe == nullptr) {
      throw ConfigError(
          "shard: resume() needs a freshly constructed coordinator (every "
          "rank alive)");
    }
    // Per-rank fingerprint check inside resume() rejects corrupted or
    // cross-rank-swapped snapshots with typed errors.
    rank.pipe->resume(set[static_cast<std::size_t>(rank.id)]);
  }
  epoch_ = set.front().epoch;
  ensure_plan(epoch_);
  delivered_batches_ = 0;
  rotor_ = 0;
  epoch_dirty_ = false;
  for (Rank& rank : ranks_) {
    const guard::Snapshot& snap = set[static_cast<std::size_t>(rank.id)];
    const auto slot = static_cast<std::size_t>(plan_->slot_of(rank.id));
    rank.local_ids = plan_->local_order(slot);
    rank.global_pos = plan_->global_positions(slot);
    rank.exhausted = snap.cursor >= rank.local_ids.size();
    rank.silent = false;
    rank.beats = 0;
    rank.local_batches = snap.batch_index;
    rank.anchor = snap;
    delivered_batches_ += snap.batch_index;
  }
}

ShardStats ShardCoordinator::aggregate() const {
  ShardStats out;
  out.world = config_.world;
  for (const Rank& rank : ranks_) {
    if (rank.alive) {
      ++out.alive;
      const pipeline::PipelineStats stats = rank.pipe->stats();
      out.totals.samples += stats.samples;
      out.totals.batches += stats.batches;
      out.totals.bytes_at_rest += stats.bytes_at_rest;
      out.totals.samples_skipped += stats.samples_skipped;
      out.totals.retries += stats.retries;
      out.totals.fallbacks += stats.fallbacks;
      out.totals.degraded = out.totals.degraded || stats.degraded;
      out.totals.decode_cpu_seconds += stats.decode_cpu_seconds;
      out.totals.decode_gpu_seconds += stats.decode_gpu_seconds;
      out.totals.gpu.merge(stats.gpu);
    } else {
      // The double-count fix: a dead rank contributes its last checkpoint,
      // not its live registry — everything it delivered after that anchor
      // was re-delivered by the survivors, whose registries already count
      // it. Retries stay live (spent wall clock, exempt from equivalence).
      out.totals.samples += rank.anchor.samples;
      out.totals.batches += rank.anchor.batches;
      out.totals.bytes_at_rest += rank.anchor.bytes_at_rest;
      out.totals.samples_skipped += rank.anchor.samples_skipped;
      out.totals.fallbacks += rank.anchor.fallbacks;
      out.totals.degraded = out.totals.degraded || rank.anchor.degraded;
      out.totals.retries +=
          rank.registry->counter_value("pipeline.retries_total");
    }
  }
  out.ranks_lost = ranks_lost_total_->value();
  out.reshards = reshards_total_->value();
  out.resharded_samples = resharded_samples_total_->value();
  out.checkpoints = checkpoints_total_->value();
  return out;
}

bool ShardCoordinator::alive(int rank) const {
  return ranks_.at(static_cast<std::size_t>(rank)).alive;
}

int ShardCoordinator::alive_count() const {
  int count = 0;
  for (const Rank& rank : ranks_) count += rank.alive ? 1 : 0;
  return count;
}

std::uint64_t ShardCoordinator::config_fingerprint(int rank) const {
  const Rank& entry = ranks_.at(static_cast<std::size_t>(rank));
  if (entry.pipe == nullptr) {
    throw ConfigError(fmt("shard: rank {} is dead", rank));
  }
  return entry.pipe->config_fingerprint();
}

}  // namespace sciprep::shard
