// The data-loading pipeline (the DALI role in §VI).
//
// Wires a stored dataset to the training loop: shuffles the epoch order,
// decodes samples with the path matching the storage format — baseline parse
// + CPU preprocessing for raw formats, gunzip + parse for GZIP TFRecords,
// codec plugin decode on CPU or (simulated) GPU for the encoded format —
// applies augmentation ops, and assembles batches. CPU decode fans samples
// out across worker threads ("on the CPU we assign different samples to
// different threads"); one batch of lookahead is prefetched in the
// background so decode overlaps the consumer's training step.
//
// Per-stage wall time is accumulated in PipelineStats; the bench harness
// combines those host-measured costs with the sim transfer model to produce
// the per-platform step times of Figures 8-12.
//
// Robustness (sciprep::guard, DESIGN.md §9): a CancelToken on the config
// unwinds a running epoch cooperatively within one batch; per-stage
// deadlines (PipelineConfig::deadlines) surface hangs as DeadlineError
// through the same FaultPolicy that handles data faults; and snapshot() /
// resume() checkpoint epoch progress at delivered-batch boundaries so a
// killed run continues with the bit-identical remaining batch sequence.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <vector>

#include "sciprep/codec/codec.hpp"
#include "sciprep/common/threadpool.hpp"
#include "sciprep/fault/fault.hpp"
#include "sciprep/guard/cancel.hpp"
#include "sciprep/guard/snapshot.hpp"
#include "sciprep/guard/watchdog.hpp"
#include "sciprep/obs/metrics.hpp"
#include "sciprep/pipeline/dataset.hpp"
#include "sciprep/pipeline/ops.hpp"
#include "sciprep/sim/simgpu.hpp"

namespace sciprep::pipeline {

/// Shared decoded-sample cache consulted around the decode path. A lookup
/// hit replaces the whole fetch+decode of a sample; a successful primary
/// decode is offered back via insert. Implementations must be thread-safe
/// (decode workers call concurrently) and bit-transparent: lookup must only
/// ever return exactly the bytes the pipeline would have decoded itself, so
/// a cached run's delivered stream is bit-identical to an uncached one.
/// sciprep::serve's SampleCache is the production implementation; only wire
/// a cache into pipelines whose decode is deterministic per sample id (no
/// at-rest fault injection).
class DecodeCache {
 public:
  virtual ~DecodeCache() = default;
  /// Fill `out` and return true on a hit.
  virtual bool lookup(std::size_t index, codec::TensorF16& out) = 0;
  /// Offer a decoded sample (pre-augmentation). May be dropped (quota).
  virtual void insert(std::size_t index, const codec::TensorF16& tensor) = 0;
};

struct PipelineConfig {
  int batch_size = 4;
  std::size_t worker_threads = 2;   // CPU decode fan-out
  bool shuffle = true;
  std::uint64_t seed = 0;
  bool prefetch = true;             // overlap next-batch decode
  codec::Placement decode_placement = codec::Placement::kCpu;
  OpList ops;                       // applied post-decode, pre-batch
  /// Registry the pipeline's stage metrics land in. When null the pipeline
  /// owns a private registry (so two pipelines in one process don't mix
  /// counts); inject obs::MetricsRegistry::global() to fold pipeline metrics
  /// into a process-wide dump. Must outlive the pipeline.
  obs::MetricsRegistry* metrics = nullptr;
  /// What to do when a sample fails to load or decode. The default (kFail
  /// everywhere) re-throws out of next_batch(), exactly the pre-policy
  /// behavior; see fault::FaultPolicy for retry/skip/fallback semantics.
  fault::FaultPolicy fault_policy;
  /// Fault source consulted around sample reads and decodes. When null,
  /// fault::Injector::global() applies (itself null outside tests/benches —
  /// production pays one pointer test per sample). Must outlive the pipeline.
  fault::Injector* injector = nullptr;
  /// Cooperative cancellation root for this pipeline. Cancelling it (from
  /// any thread) unwinds the current batch: workers stop at their next
  /// cancellation point and next_batch() throws CancelledError. The default
  /// null token disables cancellation at zero cost.
  guard::CancelToken cancel;
  /// Per-stage watchdog deadlines; all-zero (the default) disables the
  /// watchdog. Expiry surfaces as DeadlineError — a TransientError, so
  /// fault_policy.on_transient decides whether a hang retries, skips, or
  /// fails, under the same error budget as data faults.
  guard::StageDeadlines deadlines;
  /// Incident callback fired on every recovery/guard event (retry, skip,
  /// fallback, budget exhaustion, deadline expiry, resume-reject) — the hook
  /// the insight flight recorder attaches to. Fires on pool workers and the
  /// watchdog thread; must be thread-safe and must not throw. Null (the
  /// default) costs one branch per event.
  fault::RecoveryListener on_recovery_event;
  /// External epoch-order provider. When set, start_epoch(e) takes its sample
  /// sequence verbatim from epoch_order(e) instead of iota+shuffle — this is
  /// how sciprep::shard hands each rank its slice of the global shuffle. Must
  /// be a pure function of the epoch (start_epoch and resume both call it)
  /// and return ids < dataset.size(). The `shuffle` flag is ignored when set.
  std::function<std::vector<std::size_t>(std::uint64_t)> epoch_order;
  /// Identity of the epoch_order provider, mixed into config_fingerprint()
  /// (a std::function cannot be hashed). Sharded pipelines stamp the plan's
  /// (world, rank, seed, placement) hash here so a rank-2 snapshot cannot
  /// resume into a rank-3 pipeline. Leave 0 when epoch_order is unset.
  std::uint64_t order_fingerprint = 0;
  /// External worker pool for CPU decode fan-out. When set, the pipeline
  /// multiplexes onto it (under pool_key/pool_weight) instead of spawning
  /// its own `worker_threads` workers — this is how sciprep::serve shares
  /// one pool across tenants. The pool must outlive the pipeline; the
  /// pipeline does not attach its observer to a shared pool (the owner's
  /// telemetry wins). Not part of the config fingerprint: scheduling never
  /// changes delivered bytes.
  ThreadPool* shared_pool = nullptr;
  /// Scheduling class and fair-share weight on the shared pool (ignored for
  /// an owned pool — a private pool has exactly one class).
  std::uint64_t pool_key = 0;
  std::uint32_t pool_weight = 1;
  /// Shared decoded-sample cache (see DecodeCache). Null disables caching.
  /// Must outlive the pipeline. Bit-transparent by contract, so also not
  /// part of the config fingerprint.
  DecodeCache* decode_cache = nullptr;
};

struct Batch {
  std::vector<codec::TensorF16> samples;
  /// Epoch-order position (index into this pipeline's order) of each entry
  /// in `samples`, skip-aware: a policy-skipped sample leaves no entry here,
  /// so order_positions.size() == samples.size(). sciprep::shard maps these
  /// rank-local positions onto global stream positions.
  std::vector<std::uint64_t> order_positions;
  std::uint64_t bytes_at_rest = 0;  // stored size of the batch's samples
  std::uint64_t epoch = 0;
  std::uint64_t index_in_epoch = 0;

  [[nodiscard]] int size() const { return static_cast<int>(samples.size()); }
};

/// Aggregate pipeline counters, assembled on demand from the metrics
/// registry (stats() is a snapshot, not a live reference — every field is the
/// corresponding pipeline.* metric's current value). Sample/batch/byte/skip/
/// fallback counters advance when a batch is *delivered* by next_batch(), not
/// while it is being assembled, so a stats() snapshot is always consistent
/// with the delivered batch sequence even with a prefetch in flight.
struct PipelineStats {
  std::uint64_t samples = 0;           // delivered (excludes skipped)
  std::uint64_t batches = 0;
  std::uint64_t bytes_at_rest = 0;     // stored bytes of delivered samples
  std::uint64_t samples_skipped = 0;   // quarantined by kSkipSample
  std::uint64_t retries = 0;           // transient-failure re-attempts (live)
  std::uint64_t fallbacks = 0;         // GPU→CPU baseline re-decodes
  bool degraded = false;               // any recovery event has fired
  double decode_cpu_seconds = 0;   // baseline preprocess / gunzip / cpu decode
  double decode_gpu_seconds = 0;   // SimGpu wall time
  sim::KernelStats gpu;            // accumulated kernel counters
};

class DataPipeline {
 public:
  /// `codec` must outlive the pipeline and match the dataset's workload; it
  /// is also used for the baseline path (reference_preprocess). `gpu` is
  /// required when decode_placement is kGpu.
  DataPipeline(const InMemoryDataset& dataset, const codec::SampleCodec& codec,
               PipelineConfig config, sim::SimGpu* gpu = nullptr);
  ~DataPipeline();

  DataPipeline(const DataPipeline&) = delete;
  DataPipeline& operator=(const DataPipeline&) = delete;

  /// Reset to the start of `epoch` (reshuffles under the epoch-derived seed).
  /// Per-epoch recovery state — the error budget, the epoch quarantine, and
  /// the prefetch cursor — resets with it, so every epoch re-attempts every
  /// sample with a full budget. An in-flight prefetch from the previous
  /// epoch is cancelled and drained, never delivered.
  void start_epoch(std::uint64_t epoch);

  /// Produce the next batch; false at epoch end. Throws CancelledError when
  /// config.cancel is cancelled.
  bool next_batch(Batch& batch);

  /// Decode one sample through the configured path (exposed for benches that
  /// time single-sample decode). Fault-injection gates apply; the recovery
  /// policy does not — failures throw.
  [[nodiscard]] codec::TensorF16 decode_sample(std::size_t index) const;

  /// Crash-consistent progress snapshot at a delivered-batch boundary. An
  /// in-flight prefetch is completed and parked (the next next_batch() call
  /// delivers it); its work is NOT part of the snapshot, so a pipeline
  /// resumed from it re-produces that batch bit-identically. Pair with
  /// guard::write_snapshot / guard::Checkpointer for atomic persistence.
  [[nodiscard]] guard::Snapshot snapshot();

  /// Restore progress from `snapshot` (taken by a pipeline with the same
  /// dataset, config, and injector seed — enforced via the snapshot's config
  /// fingerprint; mismatch throws ConfigError). After resume() the pipeline
  /// delivers the bit-identical remaining batch sequence an uninterrupted
  /// run would have, and its delivered counters (minus live retry counters)
  /// end the run equal to the uninterrupted run's. Call on a freshly
  /// constructed pipeline: the snapshot's counter deltas are *added* to the
  /// backing registry.
  void resume(const guard::Snapshot& snapshot);

  /// Append `tail` to the current epoch's order without disturbing progress:
  /// an in-flight prefetch is completed and parked (like snapshot()), then
  /// the new positions become visible to subsequent next_batch() calls —
  /// including after next_batch() already returned false for an exhausted
  /// order. This is elastic re-sharding's survivor half: the coordinator
  /// appends a dead rank's undelivered sample ids here, and the delivered
  /// prefix keeps its positions, so augmentation and injection decisions
  /// (keyed by sample id, not position) are unchanged. Ids must be
  /// < dataset size (ConfigError otherwise).
  void extend_epoch_order(const std::vector<std::size_t>& tail);

  /// Snapshot of the aggregate counters, assembled from the registry.
  [[nodiscard]] PipelineStats stats() const;
  [[nodiscard]] std::size_t batches_per_epoch() const;

  /// Current epoch / delivered-position cursor — read by the shard
  /// coordinator to compute a dead rank's undelivered remainder.
  [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }
  [[nodiscard]] std::uint64_t consumed() const noexcept { return consumed_; }

  /// Sample ids quarantined by the kSkipSample policy, sorted ascending and
  /// de-duplicated, accumulated across the pipeline's lifetime (the same
  /// at-rest-corrupt record re-skips every epoch without growing this list).
  /// Deterministic for a fixed (pipeline seed, injector seed) pair
  /// regardless of worker count or prefetch.
  [[nodiscard]] std::vector<std::size_t> quarantine() const;

  /// Sample ids quarantined in the current epoch only (sorted, de-duplicated;
  /// cleared by start_epoch). Lets callers verify that an epoch restart
  /// really re-attempted previously skipped samples.
  [[nodiscard]] std::vector<std::size_t> epoch_quarantine() const;

  /// The registry backing stats(): per-stage latency histograms
  /// (pipeline.stage.*), sample/byte counters (pipeline.*_total), simulated
  /// GPU kernel counters (pipeline.gpu.*), worker-pool telemetry
  /// (pipeline.pool.*), and watchdog counters (guard.*).
  [[nodiscard]] obs::MetricsRegistry& metrics() const noexcept {
    return *metrics_;
  }

  /// Hash of everything that determines the delivered batch sequence;
  /// stamped into snapshots, checked by resume(), and embedded in
  /// flight-recorder incident files so an incident names the exact run
  /// configuration it happened under.
  [[nodiscard]] std::uint64_t config_fingerprint() const;

 private:
  // Metric handles resolved once at construction; hot paths pay one atomic
  // (counters) or one short critical section (histograms) per event.
  struct Handles {
    explicit Handles(obs::MetricsRegistry& registry);

    obs::Counter& samples;
    obs::Counter& batches;
    obs::Counter& bytes_at_rest;
    obs::Counter& samples_skipped;
    obs::Counter& retries;
    obs::Counter& fallbacks;
    obs::Counter& quarantine_evictions;
    obs::Gauge& degraded;
    obs::Counter& gpu_warps;
    obs::Counter& gpu_bytes_read;
    obs::Counter& gpu_bytes_written;
    obs::Counter& gpu_lockstep_ops;
    obs::Counter& gpu_divergent_branches;
    obs::Histogram& shuffle_seconds;
    obs::Histogram& decode_seconds;
    obs::Histogram& io_read_seconds;
    obs::Histogram& gunzip_seconds;
    obs::Histogram& ops_seconds;
    obs::Histogram& batch_assemble_seconds;
    obs::Histogram& prefetch_wait_seconds;
    obs::Histogram& decode_gpu_seconds;
    obs::Histogram& retry_backoff_seconds;
  };

  /// Result of one decode attempt under the recovery policy. Workers report
  /// outcomes here instead of bumping shared counters, so all delivered-data
  /// accounting happens on the consumer thread at delivery time.
  struct SlotOutcome {
    std::optional<codec::TensorF16> tensor;  // empty = skipped
    std::uint64_t fallbacks = 0;
    std::uint64_t recovery_events = 0;  // budget units consumed
  };

  /// An assembled range of the epoch order plus its pending accounting,
  /// applied by deliver() when (and only when) the batch reaches the caller.
  struct Assembled {
    Batch batch;
    std::uint64_t first = 0;
    std::uint64_t count = 0;
    std::vector<std::size_t> skipped;  // sample ids skipped in this range
    std::uint64_t fallbacks = 0;
    std::uint64_t recovery_events = 0;
  };

  /// An in-flight prefetch: the claimed range, its cancellation token
  /// (child of config.cancel), and the future computing it.
  struct Pending {
    std::uint64_t first = 0;
    std::uint64_t count = 0;
    guard::CancelToken token;
    std::future<Assembled> future;
  };

  Assembled assemble_batch(std::uint64_t first, std::uint64_t count);
  /// Apply an assembled range's accounting (counters, quarantine, consumed
  /// cursor) and hand its batch out. Runs on the consumer thread only.
  Batch deliver(Assembled&& assembled);
  /// Claim the next range (if any) and launch its assembly on a background
  /// thread under a fresh child token.
  void launch_prefetch();
  /// Cancel and drain an in-flight prefetch, discarding its result. The
  /// abandoned range's failure (if any) is swallowed.
  void abandon_pending();
  /// Complete an in-flight prefetch and park its batch undelivered in
  /// ready_ (accounting not yet applied). A failed range is marked consumed
  /// and its exception rethrown.
  void park_pending();
  /// Samples of the next range starting at `at`; 0 at epoch end.
  [[nodiscard]] std::uint64_t take_count(std::uint64_t at) const;
  /// Fetch + decode `index` through the configured path, with fault-injection
  /// gates and stage deadlines applied. `attempt` distinguishes retry draws;
  /// `force_cpu` routes an encoded sample through the CPU decoder (the
  /// kFallback path).
  [[nodiscard]] codec::TensorF16 decode_guarded(std::size_t index, int attempt,
                                                bool force_cpu) const;
  /// decode_guarded wrapped in the fault-policy dispatch.
  [[nodiscard]] SlotOutcome decode_with_recovery(std::size_t index);
  /// Claims one recovery event against the error budget; false = spent.
  [[nodiscard]] bool consume_budget();
  /// Report one incident to config.on_recovery_event (no-op when unset).
  void emit_event(fault::EventKind kind, const char* stage, std::string detail,
                  std::uint64_t sample_index, int attempt) const;

  const InMemoryDataset& dataset_;
  const codec::SampleCodec& codec_;
  PipelineConfig config_;
  sim::SimGpu* gpu_;
  fault::Injector* injector_;       // per-pipeline override or global; may be null
  fault::Site corrupt_site_;        // at-rest corruption site for the format
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;  // when none injected
  obs::MetricsRegistry* metrics_;
  Handles m_;
  // Lazily constructed when config.deadlines.any(); declared before the
  // workers so armed stages on worker threads disarm before it dies.
  std::unique_ptr<guard::Watchdog> watchdog_;
  obs::PoolMetrics pool_metrics_;
  // Declared after pool_metrics_ so the workers (who call the observer) are
  // joined before the observer is destroyed. Null when config.shared_pool
  // multiplexes this pipeline onto an external pool.
  std::unique_ptr<ThreadPool> owned_workers_;
  ThreadPool* workers_;

  std::vector<std::size_t> order_;
  std::uint64_t epoch_ = 0;
  std::uint64_t cursor_ = 0;       // next undelivered+unclaimed position in order_
  std::uint64_t consumed_ = 0;     // positions delivered (or failed) so far
  std::uint64_t batch_index_ = 0;
  std::optional<Pending> pending_;
  // A prefetch completed by snapshot() but not yet delivered; its accounting
  // is still pending, so it is invisible to snapshots.
  std::optional<Assembled> ready_;

  std::atomic<std::uint64_t> recovery_events_{0};  // vs fault_policy.error_budget
  std::atomic<std::uint64_t> skip_events_{0};  // vs fault_policy.quarantine_cap
  std::uint64_t delivered_recovery_ = 0;  // recovery events in delivered batches
  std::vector<std::size_t> quarantine_;        // lifetime skip events
  std::vector<std::size_t> epoch_quarantine_;  // this epoch's skip events
};

}  // namespace sciprep::pipeline
