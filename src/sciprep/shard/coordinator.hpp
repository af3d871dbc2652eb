// ShardCoordinator — N-rank training simulated in one process, with elastic
// recovery when a rank dies (sciprep::shard, DESIGN.md §12).
//
// The coordinator owns one DataPipeline per rank. Each epoch it builds a
// ShardPlan — the deterministic global shuffle partitioned into balanced
// contiguous shards — and hands every rank its slice through the pipeline's
// epoch_order provider, so rank-local delivery is just the ordinary
// single-pipeline machinery (prefetch, fault policy, deadlines, checkpoint)
// operating on a sub-order. step() round-robins delivery across live ranks
// and maps each batch's rank-local positions onto global stream positions.
//
// Failure and recovery:
//   * rank.heartbeat faults silence a rank's liveness beat; the
//     HeartbeatMonitor's watchdog deadline expires and the rank is declared
//     lost — asynchronous, wall-clock detection, like a real failure
//     detector.
//   * rank.crash faults (and the explicit kill_rank() used by the smoke
//     test) kill a rank mid-batch: the batch it had assembled is discarded
//     undelivered.
//   * Recovery rolls the dead rank back to its last checkpoint — its
//     post-checkpoint deliveries are rolled OUT of the aggregate counters,
//     because the survivors are about to re-deliver those samples — and
//     appends the undelivered remainder of its shard to the survivors'
//     epoch orders, balanced contiguously, via extend_epoch_order(). The
//     merged stream digest is unchanged: positions, sample identities, and
//     per-sample bytes (augmentations are keyed by sample id, not position
//     or rank) are all preserved.
//
// Counter aggregation (the cross-rank double-count fix): aggregate() sums
// live registries for live ranks but the *last checkpoint* for dead ranks.
// A dead rank's live registry still contains deliveries that happened after
// its checkpoint; the survivors re-deliver exactly those samples, so summing
// live registries would count them twice. Retries/injected-fault counters
// stay live everywhere — they are spent wall clock, not delivered data, and
// are exempt from the equivalence contract (same as single-pipeline resume).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sciprep/pipeline/pipeline.hpp"
#include "sciprep/shard/digest.hpp"
#include "sciprep/shard/heartbeat.hpp"
#include "sciprep/shard/plan.hpp"

namespace sciprep::shard {

struct ShardConfig {
  /// Number of simulated ranks (>= 1).
  int world = 1;
  /// Per-rank pipeline template. The coordinator overrides `epoch_order`,
  /// `order_fingerprint`, `metrics` (each rank gets a private registry) and
  /// wraps `on_recovery_event` to stamp the rank scope; everything else —
  /// seed, batch size, fault policy, deadlines, injector, placement — is
  /// shared by all ranks.
  pipeline::PipelineConfig pipeline;
  /// Staged placement: every rank holds its own copy of the dataset (the
  /// paper's node-local staging; cheap here — sample storage is shared
  /// underneath — but it is accounted as shard.staged_bytes_total).
  /// Unstaged: all ranks read the one shared store.
  bool staged = true;
  /// Re-shard a dead rank's remainder to the survivors. When false a rank
  /// loss throws Error out of step() — the classic gang-scheduled abort.
  bool elastic = true;
  /// Heartbeat deadline per rank (seconds). Detection latency for a silent
  /// rank is at most this plus scheduler noise.
  double heartbeat_deadline_seconds = 0.25;
  /// Coordinated checkpointing: after every N globally delivered batches,
  /// quiesce and snapshot every live rank (0 disables). Snapshots are the
  /// rollback anchors for recovery; with `checkpoint_dir` set they are also
  /// persisted as <dir>/rank-<r>.ckpt for resume(). On-disk writes are
  /// skipped (shard.checkpoint_skipped_total) once a rank has died or been
  /// extended this epoch — the set would no longer describe a plan a fresh
  /// world could rebuild — and resume at the next epoch boundary.
  std::uint64_t checkpoint_every_batches = 0;
  std::string checkpoint_dir;
  /// Record every delivered sample into the global stream digest (the
  /// --validate cross-check). Costs one CRC per sample; off by default.
  bool verify_stream = false;
  /// Shard-level event sink: rank_lost / reshard / forwarded per-rank
  /// recovery events, all carrying RecoveryEvent::scope = "rank<N>". Same
  /// thread-safety contract as PipelineConfig::on_recovery_event.
  fault::RecoveryListener on_event;
  /// Registry for shard.* aggregate metrics (ranks lost, reshards,
  /// checkpoints, staged bytes). Null = a private registry.
  obs::MetricsRegistry* metrics = nullptr;
  /// Per-rank simulated GPU factory, required for kGpu placement (each rank
  /// models a node with its own device). Called once per rank.
  std::function<std::unique_ptr<sim::SimGpu>(int rank)> gpu_factory;
};

/// One delivered batch plus its global-stream coordinates.
struct ShardBatch {
  int rank = -1;
  pipeline::Batch batch;
  /// Global stream position of each sample in `batch.samples` (parallel to
  /// batch.order_positions, which stays rank-local).
  std::vector<std::uint64_t> global_positions;
};

/// Aggregate counters across the world, double-count-safe (see file header).
struct ShardStats {
  pipeline::PipelineStats totals;
  int world = 0;
  int alive = 0;
  std::uint64_t ranks_lost = 0;
  std::uint64_t reshards = 0;
  std::uint64_t resharded_samples = 0;
  std::uint64_t checkpoints = 0;
};

class ShardCoordinator {
 public:
  /// `dataset` and `codec` must outlive the coordinator (ranks reference
  /// them; staged placement copies the dataset's index, not its bytes).
  ShardCoordinator(const pipeline::InMemoryDataset& dataset,
                   const codec::SampleCodec& codec, ShardConfig config);
  ~ShardCoordinator();

  ShardCoordinator(const ShardCoordinator&) = delete;
  ShardCoordinator& operator=(const ShardCoordinator&) = delete;

  /// Re-plan and reset every live rank to `epoch`. The plan partitions among
  /// the ranks alive *now*: after a death, the next epoch re-balances across
  /// the survivors (elastic world shrink).
  void start_epoch(std::uint64_t epoch);

  /// Deliver the next batch of the epoch, round-robin across live ranks;
  /// false when every live rank has exhausted its (possibly extended) shard
  /// and no silent rank is still awaiting detection. Injected rank faults
  /// fire inside; recovery (detection, rollback, re-shard) happens here too.
  bool step(ShardBatch& out);

  /// Kill `rank` now — the smoke test's deterministic mid-epoch kill. Its
  /// recovery runs immediately (elastic) or the next step() throws
  /// (non-elastic... the throw happens here). Idempotent on a dead rank.
  void kill_rank(int rank);

  /// Quiesce and snapshot every live rank now (in-memory rollback anchors;
  /// persisted when checkpoint_dir is set and the epoch is still clean).
  void checkpoint();

  /// Resume a freshly constructed coordinator from the coordinated
  /// checkpoint in `dir`: reads rank-0..rank-(world-1), validates epochs
  /// agree and each snapshot's fingerprint matches its rank (typed errors
  /// on any corruption or cross-rank swap), then fast-forwards every rank.
  void resume(const std::string& dir);

  [[nodiscard]] ShardStats aggregate() const;
  [[nodiscard]] const GlobalStreamDigest& digest() const { return digest_; }
  [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }
  [[nodiscard]] bool alive(int rank) const;
  [[nodiscard]] int alive_count() const;
  /// The shard-level registry (shard.* counters).
  [[nodiscard]] obs::MetricsRegistry& metrics() const noexcept {
    return *metrics_;
  }
  /// Fingerprint of rank 0's pipeline config (stable across ranks except
  /// for the rank-id term) — what incident files should carry.
  [[nodiscard]] std::uint64_t config_fingerprint(int rank = 0) const;

 private:
  struct Rank {
    int id = -1;
    bool alive = true;
    bool silent = false;     // heartbeat suppressed; awaiting detection
    bool exhausted = false;  // shard fully delivered (until extended)
    std::unique_ptr<obs::MetricsRegistry> registry;
    std::unique_ptr<pipeline::InMemoryDataset> staged;  // staged placement
    std::unique_ptr<sim::SimGpu> gpu;
    std::unique_ptr<pipeline::DataPipeline> pipe;
    /// Rank-local order mirror: sample ids and their global positions,
    /// extended in lockstep with extend_epoch_order().
    std::vector<std::size_t> local_ids;
    std::vector<std::uint64_t> global_pos;
    guard::Snapshot anchor;       // last checkpoint (epoch start if none yet)
    std::uint64_t beats = 0;      // heartbeat ordinal, reset per epoch
    std::uint64_t local_batches = 0;  // crash-site ordinal, reset per epoch
  };

  void build_ranks(const pipeline::InMemoryDataset& dataset,
                   const codec::SampleCodec& codec);
  [[nodiscard]] std::vector<int> alive_ids() const;
  /// The epoch_order provider for `rank`: local slice of the plan for the
  /// requested epoch (rebuilding the plan when the epoch differs).
  [[nodiscard]] std::vector<std::size_t> plan_local_order(int rank,
                                                          std::uint64_t epoch);
  void ensure_plan(std::uint64_t epoch);
  /// Declare `rank` dead and (elastic) redistribute its undelivered
  /// remainder from its rollback anchor to the survivors.
  void recover_rank(int rank, const char* cause);
  /// Mark lost any silent rank whose heartbeat deadline has expired, and
  /// recover it.
  void harvest_lost();
  /// Block until every silent rank's deadline expires (bounded), then
  /// recover. Called when only silent ranks could still produce data.
  void await_detection();
  void emit(fault::EventKind kind, int rank, std::string detail);

  ShardConfig config_;
  const pipeline::InMemoryDataset& dataset_;
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::MetricsRegistry* metrics_;
  std::unique_ptr<HeartbeatMonitor> monitor_;
  std::vector<Rank> ranks_;
  std::optional<ShardPlan> plan_;
  GlobalStreamDigest digest_;
  std::uint64_t epoch_ = 0;
  std::uint64_t delivered_batches_ = 0;  // global, for checkpoint cadence
  std::size_t rotor_ = 0;                // round-robin cursor
  bool epoch_dirty_ = false;  // a death/extension happened this epoch
  obs::Counter* ranks_lost_total_;
  obs::Counter* reshards_total_;
  obs::Counter* resharded_samples_total_;
  obs::Counter* checkpoints_total_;
  obs::Counter* checkpoints_skipped_total_;
  obs::Counter* staged_bytes_total_;
};

}  // namespace sciprep::shard
