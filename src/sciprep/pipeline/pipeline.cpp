#include "sciprep/pipeline/pipeline.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <numeric>
#include <utility>

#include "sciprep/common/error.hpp"
#include "sciprep/io/tfrecord.hpp"
#include "sciprep/obs/trace.hpp"

namespace sciprep::pipeline {

namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Records elapsed time into a histogram on destruction — including exception
// unwind, which matters for the bottleneck analyzer: a stalled io.read that a
// watchdog deadline cancels mid-sleep must still charge its wall time to the
// io.read stage, or the dominant stage would vanish from the report exactly
// when it misbehaves worst.
class StageTimer {
 public:
  explicit StageTimer(obs::Histogram& hist) : hist_(hist), t0_(now_seconds()) {}
  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;
  ~StageTimer() { hist_.record(now_seconds() - t0_); }

 private:
  obs::Histogram& hist_;
  double t0_;
};

fault::Site corrupt_site_for(StorageFormat format) {
  switch (format) {
    case StorageFormat::kRawTfRecord:
    case StorageFormat::kGzipTfRecord:
      return fault::Site::kTfrecordPayloadCrc;
    case StorageFormat::kRawH5:
      return fault::Site::kH5ChunkCrc;
    case StorageFormat::kEncoded:
      return fault::Site::kCodecDecode;
  }
  return fault::Site::kCodecDecode;
}

}  // namespace

DataPipeline::Handles::Handles(obs::MetricsRegistry& registry)
    : samples(registry.counter("pipeline.samples_total")),
      batches(registry.counter("pipeline.batches_total")),
      bytes_at_rest(registry.counter("pipeline.bytes_at_rest_total")),
      samples_skipped(registry.counter("pipeline.samples_skipped_total")),
      retries(registry.counter("pipeline.retries_total")),
      fallbacks(registry.counter("pipeline.fallbacks_total")),
      quarantine_evictions(
          registry.counter("fault.quarantine_evictions_total")),
      degraded(registry.gauge("pipeline.degraded")),
      gpu_warps(registry.counter("pipeline.gpu.warps_total")),
      gpu_bytes_read(registry.counter("pipeline.gpu.bytes_read_total")),
      gpu_bytes_written(registry.counter("pipeline.gpu.bytes_written_total")),
      gpu_lockstep_ops(registry.counter("pipeline.gpu.lockstep_ops_total")),
      gpu_divergent_branches(
          registry.counter("pipeline.gpu.divergent_branches_total")),
      shuffle_seconds(registry.histogram("pipeline.stage.shuffle_seconds")),
      decode_seconds(registry.histogram("pipeline.stage.decode_seconds")),
      io_read_seconds(registry.histogram("pipeline.stage.io_read_seconds")),
      gunzip_seconds(registry.histogram("pipeline.stage.gunzip_seconds")),
      ops_seconds(registry.histogram("pipeline.stage.ops_seconds")),
      batch_assemble_seconds(
          registry.histogram("pipeline.stage.batch_assemble_seconds")),
      prefetch_wait_seconds(
          registry.histogram("pipeline.stage.prefetch_wait_seconds")),
      decode_gpu_seconds(
          registry.histogram("pipeline.stage.decode_gpu_seconds")),
      retry_backoff_seconds(
          registry.histogram("pipeline.stage.retry_backoff_seconds")) {}

DataPipeline::DataPipeline(const InMemoryDataset& dataset,
                           const codec::SampleCodec& codec,
                           PipelineConfig config, sim::SimGpu* gpu)
    : dataset_(dataset),
      codec_(codec),
      config_(std::move(config)),
      gpu_(gpu),
      injector_(config_.injector != nullptr ? config_.injector
                                            : fault::Injector::global()),
      corrupt_site_(corrupt_site_for(dataset.format())),
      owned_metrics_(config_.metrics != nullptr
                         ? nullptr
                         : std::make_unique<obs::MetricsRegistry>()),
      metrics_(config_.metrics != nullptr ? config_.metrics
                                          : owned_metrics_.get()),
      m_(*metrics_),
      watchdog_(config_.deadlines.any()
                    ? std::make_unique<guard::Watchdog>(metrics_)
                    : nullptr),
      pool_metrics_(*metrics_, "pipeline.pool"),
      owned_workers_(config_.shared_pool != nullptr
                         ? nullptr
                         : std::make_unique<ThreadPool>(
                               std::max<std::size_t>(1,
                                                     config_.worker_threads))),
      workers_(config_.shared_pool != nullptr ? config_.shared_pool
                                              : owned_workers_.get()) {
  if (config_.batch_size < 1) {
    throw ConfigError("pipeline: batch_size must be >= 1");
  }
  if (owned_workers_) {
    // A shared pool keeps its owner's observer: pool telemetry there belongs
    // to the service multiplexing the tenants, not to any one of them.
    owned_workers_->set_observer(&pool_metrics_);
  }
  if (watchdog_ != nullptr && config_.on_recovery_event) {
    // Deadline expiries are reported here, from the watchdog thread, and
    // nowhere else: the unwinding stage also surfaces them as a retried/
    // skipped TransientError, and reporting both would double-count one
    // incident.
    fault::RecoveryListener listener = config_.on_recovery_event;
    watchdog_->set_expiry_callback(
        [listener](const char* stage, double elapsed_seconds) {
          fault::RecoveryEvent event;
          event.kind = fault::EventKind::kDeadlineExpired;
          event.stage = stage;
          event.detail =
              fmt("stage deadline expired after {:.3f}s", elapsed_seconds);
          listener(event);
        });
  }
  if (config_.decode_placement == codec::Placement::kGpu) {
    if (gpu_ == nullptr) {
      throw ConfigError("pipeline: GPU placement requires a SimGpu");
    }
    if (dataset_.format() != StorageFormat::kEncoded) {
      throw ConfigError(
          "pipeline: GPU placement requires the encoded storage format "
          "(raw formats decode on the CPU, as in the unmodified benchmarks)");
    }
  }
  order_.resize(dataset_.size());
  std::iota(order_.begin(), order_.end(), 0);
  start_epoch(0);
}

DataPipeline::~DataPipeline() { abandon_pending(); }

void DataPipeline::abandon_pending() {
  if (!pending_) return;
  Pending pending = std::move(*pending_);
  pending_.reset();
  pending.token.cancel("pipeline: prefetched batch abandoned");
  try {
    pending.future.get();  // never abandon a running future
  } catch (...) {
    // The abandoned range's failure belongs to the discarded work.
  }
}

void DataPipeline::start_epoch(std::uint64_t epoch) {
  abandon_pending();
  ready_.reset();
  epoch_ = epoch;
  cursor_ = 0;
  consumed_ = 0;
  batch_index_ = 0;
  // Per-epoch recovery state resets with the epoch: the error budget
  // refills, the epoch quarantine clears, and (via cursor_) every sample —
  // including ones skipped last epoch — is re-attempted. The lifetime
  // quarantine_ is deliberately kept: it records which ids ever skipped.
  recovery_events_.store(0, std::memory_order_relaxed);
  skip_events_.store(0, std::memory_order_relaxed);
  delivered_recovery_ = 0;
  epoch_quarantine_.clear();
  if (config_.epoch_order) {
    const obs::ScopedSpan span("pipeline.shuffle", "pipeline");
    const double t0 = now_seconds();
    order_ = config_.epoch_order(epoch);
    for (const std::size_t id : order_) {
      if (id >= dataset_.size()) {
        throw ConfigError(fmt(
            "pipeline: epoch_order produced sample id {} >= dataset size {}",
            id, dataset_.size()));
      }
    }
    m_.shuffle_seconds.record(now_seconds() - t0);
    return;
  }
  order_.resize(dataset_.size());
  std::iota(order_.begin(), order_.end(), 0);
  if (config_.shuffle) {
    const obs::ScopedSpan span("pipeline.shuffle", "pipeline");
    const double t0 = now_seconds();
    Rng rng(split_seed(config_.seed, epoch, kShuffleStream));
    for (std::size_t i = order_.size(); i > 1; --i) {
      std::swap(order_[i - 1], order_[rng.next_below(i)]);
    }
    m_.shuffle_seconds.record(now_seconds() - t0);
  }
}

void DataPipeline::park_pending() {
  if (!pending_) return;
  Pending pending = std::move(*pending_);
  pending_.reset();
  try {
    ready_ = pending.future.get();
  } catch (...) {
    consumed_ = pending.first + pending.count;
    throw;
  }
}

void DataPipeline::extend_epoch_order(const std::vector<std::size_t>& tail) {
  for (const std::size_t id : tail) {
    if (id >= dataset_.size()) {
      throw ConfigError(
          fmt("pipeline: extend_epoch_order sample id {} >= dataset size {}",
              id, dataset_.size()));
    }
  }
  // Quiesce exactly like snapshot(): the in-flight prefetch claimed a range
  // of the *old* order, so it completes against that order and parks; the
  // appended tail only affects ranges claimed after this call.
  park_pending();
  order_.insert(order_.end(), tail.begin(), tail.end());
}

std::size_t DataPipeline::batches_per_epoch() const {
  const std::size_t n = order_.size();
  const auto b = static_cast<std::size_t>(config_.batch_size);
  return (n + b - 1) / b;
}

codec::TensorF16 DataPipeline::decode_sample(std::size_t index) const {
  return decode_guarded(index, /*attempt=*/0, /*force_cpu=*/false);
}

codec::TensorF16 DataPipeline::decode_guarded(std::size_t index, int attempt,
                                              bool force_cpu) const {
  const obs::ScopedSpan span("pipeline.decode", "pipeline");
  guard::poll_cancellation();
  // One deadline covers the whole decode attempt; a retry re-arms a fresh
  // token, so an expiry poisons exactly one attempt.
  const guard::StageGuard decode_deadline(watchdog_.get(), "decode",
                                          config_.deadlines.decode_seconds);
  ByteSpan stored;
  Bytes scratch;
  std::uint64_t op = index;
  {
    const obs::ScopedSpan span("pipeline.io_read", "pipeline");
    const StageTimer io_timer(m_.io_read_seconds);
    const guard::StageGuard io_deadline(watchdog_.get(), "io.read",
                                        config_.deadlines.io_read_seconds);
    stored = dataset_.sample(index);
    if (injector_ != nullptr) {
      // Transient faults are keyed on (epoch, attempt, sample) so every retry
      // is a fresh draw; at-rest corruption is keyed on the sample id alone,
      // modelling a record that is bad on disk — the same sample fails the
      // same way on every read, in every epoch, under any thread schedule.
      op = (epoch_ << 40) ^ (static_cast<std::uint64_t>(attempt) << 32) ^ index;
      injector_->on_operation(fault::Site::kIoRead, op);
      stored = injector_->mutate(corrupt_site_, index, stored, scratch);
    }
  }
  switch (dataset_.format()) {
    case StorageFormat::kRawTfRecord: {
      const auto records = io::TfRecordReader::read_all(stored);
      if (records.size() != 1) {
        throw_format("pipeline: expected 1 record per sample file, got {}",
                     records.size());
      }
      return codec_.reference_preprocess(records.front());
    }
    case StorageFormat::kGzipTfRecord: {
      Bytes plain;
      {
        const obs::ScopedSpan span("pipeline.gunzip", "pipeline");
        const StageTimer gunzip_timer(m_.gunzip_seconds);
        const guard::StageGuard gunzip_deadline(
            watchdog_.get(), "gunzip", config_.deadlines.gunzip_seconds);
        plain = io::gunzip_tfrecord_stream(stored);
      }
      const auto records = io::TfRecordReader::read_all(plain);
      if (records.size() != 1) {
        throw_format("pipeline: expected 1 record per sample file, got {}",
                     records.size());
      }
      return codec_.reference_preprocess(records.front());
    }
    case StorageFormat::kRawH5:
      return codec_.reference_preprocess(stored);
    case StorageFormat::kEncoded:
      if (!force_cpu && config_.decode_placement == codec::Placement::kGpu) {
        if (injector_ != nullptr) {
          injector_->on_operation(fault::Site::kGpuLaunch, op);
        }
        return codec_.decode_gpu(stored, *gpu_);
      }
      return codec_.decode_cpu(stored);
  }
  throw ConfigError("pipeline: unhandled storage format");
}

bool DataPipeline::consume_budget() {
  return recovery_events_.fetch_add(1, std::memory_order_relaxed) <
         config_.fault_policy.error_budget;
}

void DataPipeline::emit_event(fault::EventKind kind, const char* stage,
                              std::string detail, std::uint64_t sample_index,
                              int attempt) const {
  if (!config_.on_recovery_event) return;
  fault::RecoveryEvent event;
  event.kind = kind;
  event.stage = stage;
  event.detail = std::move(detail);
  event.sample_index = sample_index;
  event.attempt = attempt;
  config_.on_recovery_event(event);
}

DataPipeline::SlotOutcome DataPipeline::decode_with_recovery(
    std::size_t index) {
  const fault::FaultPolicy& policy = config_.fault_policy;
  SlotOutcome out;
  if (config_.decode_cache != nullptr) {
    // A cache hit replaces the whole fetch+decode; by the DecodeCache
    // contract the bytes are exactly what decode_guarded would produce, so
    // hits are invisible to digests, snapshots, and fingerprints.
    codec::TensorF16 cached;
    if (config_.decode_cache->lookup(index, cached)) {
      out.tensor = std::move(cached);
      return out;
    }
  }
  int attempt = 0;
  for (;;) {
    try {
      out.tensor = decode_guarded(index, attempt, /*force_cpu=*/false);
      if (config_.decode_cache != nullptr) {
        config_.decode_cache->insert(index, *out.tensor);
      }
      return out;
    } catch (const std::exception& e) {
      const ErrorClass cls = classify(e);
      fault::Action action = cls == ErrorClass::kTransient ? policy.on_transient
                             : cls == ErrorClass::kCorrupt ? policy.on_corrupt
                                                           : fault::Action::kFail;
      if (action == fault::Action::kRetry) {
        if (attempt + 1 < policy.retry.max_attempts) {
          if (!consume_budget()) {
            // Budget spent: escalate to failure.
            emit_event(fault::EventKind::kBudgetExhausted, "decode", e.what(),
                       index, attempt);
            throw;
          }
          out.recovery_events += 1;
          emit_event(fault::EventKind::kRetry, "decode", e.what(), index,
                     attempt + 1);
          const double backoff =
              policy.retry.backoff_seconds *
              std::pow(policy.retry.backoff_multiplier, attempt);
          if (backoff > 0) {
            guard::interruptible_sleep(backoff);
          }
          // Retries stay live (not delivery-time): they are spent wall
          // clock, observable while the stall is happening, and exempt from
          // the resume equivalence contract.
          m_.retry_backoff_seconds.record(backoff);
          m_.retries.add(1);
          m_.degraded.set(1);
          ++attempt;
          continue;
        }
        emit_event(fault::EventKind::kRetryExhausted, "decode", e.what(),
                   index, attempt);
        action = policy.on_retry_exhausted;
      }
      if (action == fault::Action::kFallback) {
        // The only fallback decode path today is GPU placement → the CPU
        // decoder over the same stored bytes. Raw formats already decode on
        // the CPU baseline, so for them the fallback degrades to a skip.
        const bool can_fallback =
            dataset_.format() == StorageFormat::kEncoded &&
            config_.decode_placement == codec::Placement::kGpu;
        if (can_fallback) {
          if (!consume_budget()) {
            emit_event(fault::EventKind::kBudgetExhausted, "decode", e.what(),
                       index, attempt);
            throw;
          }
          out.recovery_events += 1;
          out.fallbacks += 1;
          emit_event(fault::EventKind::kFallback, "decode", e.what(), index,
                     attempt);
          m_.degraded.set(1);
          try {
            out.tensor = decode_guarded(index, attempt, /*force_cpu=*/true);
            return out;
          } catch (const std::exception&) {
            // The baseline path failed too (e.g. the record itself is
            // corrupt): quarantine below.
          }
        }
        action = fault::Action::kSkipSample;
      }
      if (action == fault::Action::kSkipSample) {
        if (!consume_budget()) {
          emit_event(fault::EventKind::kBudgetExhausted, "decode", e.what(),
                     index, attempt);
          throw;
        }
        // The quarantine has its own bound: a pathologically corrupt dataset
        // escalates to failure once the epoch's skip count passes the cap,
        // instead of quarantining its way through gigabytes one sample at a
        // time (and growing the quarantine list without limit).
        if (skip_events_.fetch_add(1, std::memory_order_relaxed) >=
            config_.fault_policy.quarantine_cap) {
          emit_event(fault::EventKind::kBudgetExhausted, "decode",
                     fmt("quarantine cap {} exceeded: {}",
                         config_.fault_policy.quarantine_cap, e.what()),
                     index, attempt);
          throw;
        }
        out.recovery_events += 1;
        out.tensor.reset();
        emit_event(fault::EventKind::kSkipSample, "decode", e.what(), index,
                   attempt);
        m_.degraded.set(1);
        return out;  // skipped: quarantined at delivery time
      }
      throw;  // kFail, config/cancelled/fatal classes, or budget escalation
    }
  }
}

DataPipeline::Assembled DataPipeline::assemble_batch(std::uint64_t first,
                                                     std::uint64_t count) {
  obs::ScopedSpan assemble_span("pipeline.batch_assemble", "pipeline");
  if (assemble_span.active()) {
    assemble_span.set_args_json(
        fmt("{{\"first\": {}, \"count\": {}, \"epoch\": {}}}", first, count,
            epoch_));
  }
  guard::poll_cancellation();
  const double assemble_t0 = now_seconds();

  Assembled out;
  out.first = first;
  out.count = count;
  out.batch.epoch = epoch_;
  // Decode into per-slot outcomes: a policy-skipped sample leaves a hole and
  // the batch is compacted afterwards preserving epoch order. Workers write
  // only their own slot — delivered-data accounting happens in deliver(), on
  // the consumer thread, so a crash-consistent snapshot never sees half a
  // batch's counters.
  std::vector<SlotOutcome> slots(count);

  auto decode_one = [&](std::size_t i) {
    const std::size_t index = order_[first + i];
    const double t0 = now_seconds();
    SlotOutcome outcome = decode_with_recovery(index);
    const double t1 = now_seconds();
    m_.decode_seconds.record(t1 - t0);
    // Augmentations run on the decode worker, seeded per (epoch, sample id)
    // via split_seed: reruns of an epoch are bit-identical, and — because
    // the key is the sample's identity, not its position in this pipeline's
    // order — a sample augments identically no matter which rank of a
    // sharded run delivers it, or where re-sharding lands it.
    if (outcome.tensor && !config_.ops.empty()) {
      const obs::ScopedSpan span("pipeline.ops", "pipeline");
      Rng rng(split_seed(config_.seed, epoch_, index));
      for (const auto& op : config_.ops) {
        op->apply(*outcome.tensor, rng);
      }
      m_.ops_seconds.record(now_seconds() - t1);
    }
    slots[i] = std::move(outcome);
  };

  if (config_.decode_placement == codec::Placement::kGpu) {
    // The (one) simulated device processes decode kernels serially.
    const sim::KernelStats before = gpu_->lifetime_stats();
    for (std::size_t i = 0; i < count; ++i) {
      decode_one(i);
    }
    const sim::KernelStats after = gpu_->lifetime_stats();
    m_.gpu_bytes_read.add(after.bytes_read - before.bytes_read);
    m_.gpu_bytes_written.add(after.bytes_written - before.bytes_written);
    m_.gpu_lockstep_ops.add(after.lockstep_ops - before.lockstep_ops);
    m_.gpu_divergent_branches.add(after.divergent_branches -
                                  before.divergent_branches);
    m_.gpu_warps.add(after.warps - before.warps);
    m_.decode_gpu_seconds.record(after.wall_seconds - before.wall_seconds);
  } else {
    workers_->parallel_for(count, decode_one, /*grain=*/1, config_.pool_key,
                           config_.pool_weight);
  }

  out.batch.samples.reserve(count);
  out.batch.order_positions.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    SlotOutcome& slot = slots[i];
    out.fallbacks += slot.fallbacks;
    out.recovery_events += slot.recovery_events;
    if (!slot.tensor) {
      out.skipped.push_back(order_[first + i]);
      continue;
    }
    out.batch.samples.push_back(std::move(*slot.tensor));
    out.batch.order_positions.push_back(first + i);
    out.batch.bytes_at_rest += dataset_.sample_bytes(order_[first + i]);
  }
  m_.batch_assemble_seconds.record(now_seconds() - assemble_t0);
  return out;
}

Batch DataPipeline::deliver(Assembled&& assembled) {
  consumed_ = assembled.first + assembled.count;
  m_.samples.add(assembled.batch.samples.size());
  m_.bytes_at_rest.add(assembled.batch.bytes_at_rest);
  if (!assembled.batch.samples.empty()) {
    // A fully-skipped range produces no batch; next_batch() rolls on to the
    // next range, so don't count a phantom one.
    m_.batches.add(1);
  }
  if (!assembled.skipped.empty()) {
    m_.samples_skipped.add(assembled.skipped.size());
    quarantine_.insert(quarantine_.end(), assembled.skipped.begin(),
                       assembled.skipped.end());
    epoch_quarantine_.insert(epoch_quarantine_.end(),
                             assembled.skipped.begin(),
                             assembled.skipped.end());
    // Bound the lifetime list: the same at-rest-corrupt ids re-skip every
    // epoch, so first fold duplicates (keeping first-seen order), then — if
    // genuinely more *distinct* ids ever skipped than the cap — evict the
    // oldest, counting evictions. The per-epoch escalation above makes this
    // a multi-epoch backstop, not the primary defense.
    const std::uint64_t cap = config_.fault_policy.quarantine_cap;
    if (quarantine_.size() > cap) {
      std::vector<std::size_t> seen;
      std::vector<std::size_t> unique;
      unique.reserve(quarantine_.size());
      for (const std::size_t id : quarantine_) {
        const auto it = std::lower_bound(seen.begin(), seen.end(), id);
        if (it != seen.end() && *it == id) continue;
        seen.insert(it, id);
        unique.push_back(id);
      }
      if (unique.size() > cap) {
        const std::size_t evicted = unique.size() - cap;
        unique.erase(unique.begin(),
                     unique.begin() + static_cast<std::ptrdiff_t>(evicted));
        m_.quarantine_evictions.add(evicted);
      }
      quarantine_ = std::move(unique);
    }
  }
  if (assembled.fallbacks > 0) m_.fallbacks.add(assembled.fallbacks);
  delivered_recovery_ += assembled.recovery_events;
  return std::move(assembled.batch);
}

void DataPipeline::launch_prefetch() {
  const std::uint64_t count = take_count(cursor_);
  if (count == 0) return;
  const std::uint64_t at = cursor_;
  cursor_ += count;
  // Each prefetch gets its own child token: the watchdog's prefetch-wait
  // deadline (and abandon_pending) cancel this batch alone, while a
  // config.cancel still unwinds it through the parent link.
  guard::CancelToken token = config_.cancel.child();
  Pending pending;
  pending.first = at;
  pending.count = count;
  pending.token = token;
  pending.future =
      std::async(std::launch::async, [this, at, count, token]() mutable {
        const guard::CancelScope scope(std::move(token));
        return assemble_batch(at, count);
      });
  pending_ = std::move(pending);
}

std::uint64_t DataPipeline::take_count(std::uint64_t at) const {
  const std::uint64_t n = order_.size();
  const auto b = static_cast<std::uint64_t>(config_.batch_size);
  if (at >= n) return 0;
  return std::min(b, n - at);
}

bool DataPipeline::next_batch(Batch& batch) {
  config_.cancel.check();

  // Loop: a range whose samples were all skipped by policy yields an empty
  // batch, which is dropped here and the next range pulled instead.
  for (;;) {
    Assembled assembled;
    if (ready_) {
      // A prefetch parked by snapshot(); deliver it now.
      assembled = std::move(*ready_);
      ready_.reset();
    } else if (pending_) {
      // Move the pending slot out before get(): if the prefetch worker
      // threw, the exception rethrows here and the pipeline must not be left
      // holding a consumed future — the failed range counts as consumed and
      // the next call continues with the ranges after it.
      Pending pending = std::move(*pending_);
      pending_.reset();
      const obs::ScopedSpan span("pipeline.prefetch_wait", "pipeline");
      // The prefetch-wait deadline cancels the *batch* token: the workers
      // unwind cooperatively (DeadlineError through the per-sample recovery
      // policy), the future completes, and get() returns the recovered —
      // possibly partially skipped — batch. The future is never abandoned.
      std::optional<guard::Watchdog::Armed> armed;
      if (watchdog_ != nullptr && config_.deadlines.prefetch_wait_seconds > 0) {
        armed.emplace(watchdog_->arm("prefetch_wait",
                                     config_.deadlines.prefetch_wait_seconds,
                                     pending.token));
      }
      const double t0 = now_seconds();
      try {
        assembled = pending.future.get();
      } catch (...) {
        consumed_ = pending.first + pending.count;
        throw;
      }
      m_.prefetch_wait_seconds.record(now_seconds() - t0);
    } else {
      const std::uint64_t count = take_count(cursor_);
      if (count == 0) return false;
      const std::uint64_t at = cursor_;
      // Claim the range before assembling (mirroring the prefetch path): if
      // assemble_batch throws under a kFail policy, the bad range must not
      // be retried forever on the next call.
      cursor_ += count;
      const guard::CancelScope scope(config_.cancel);
      try {
        assembled = assemble_batch(at, count);
      } catch (...) {
        consumed_ = at + count;
        throw;
      }
    }

    Batch result = deliver(std::move(assembled));

    // Kick off the next batch's decode while the caller trains on this one.
    if (config_.prefetch && !pending_) {
      launch_prefetch();
    }

    if (result.samples.empty()) continue;  // fully-skipped range
    result.index_in_epoch = batch_index_++;
    batch = std::move(result);
    return true;
  }
}

guard::Snapshot DataPipeline::snapshot() {
  // Quiesce: complete an in-flight prefetch and park it undelivered. Its
  // accounting has not been applied, so the snapshot cuts cleanly at the
  // last delivered batch and a resumed pipeline re-produces the parked
  // batch from the same range.
  park_pending();
  guard::Snapshot s;
  s.config_fingerprint = config_fingerprint();
  s.epoch = epoch_;
  s.cursor = consumed_;
  s.batch_index = batch_index_;
  s.recovery_events = delivered_recovery_;
  s.samples = m_.samples.value();
  s.batches = m_.batches.value();
  s.bytes_at_rest = m_.bytes_at_rest.value();
  s.samples_skipped = m_.samples_skipped.value();
  s.fallbacks = m_.fallbacks.value();
  s.degraded = m_.degraded.value() != 0;
  s.quarantine.assign(quarantine_.begin(), quarantine_.end());
  std::sort(s.quarantine.begin(), s.quarantine.end());
  s.epoch_quarantine.assign(epoch_quarantine_.begin(), epoch_quarantine_.end());
  std::sort(s.epoch_quarantine.begin(), s.epoch_quarantine.end());
  return s;
}

void DataPipeline::resume(const guard::Snapshot& s) {
  if (s.config_fingerprint != config_fingerprint()) {
    emit_event(fault::EventKind::kResumeReject, "resume",
               fmt("snapshot fingerprint {:x} != pipeline fingerprint {:x}",
                   s.config_fingerprint, config_fingerprint()),
               /*sample_index=*/0, /*attempt=*/0);
    throw ConfigError(
        "pipeline: snapshot was taken under a different dataset / pipeline "
        "configuration / injector seed and cannot resume here");
  }
  // Rebuild the epoch's order (a pure function of seed and epoch, or the
  // epoch_order provider) first — the cursor bound is against *that* order's
  // length, which for a sharded rank is its shard, not the whole dataset.
  start_epoch(s.epoch);
  if (s.cursor > order_.size()) {
    throw ConfigError(
        fmt("pipeline: snapshot cursor {} exceeds epoch order size {}",
            s.cursor, order_.size()));
  }
  cursor_ = s.cursor;
  consumed_ = s.cursor;
  batch_index_ = s.batch_index;
  recovery_events_.store(s.recovery_events, std::memory_order_relaxed);
  skip_events_.store(s.epoch_quarantine.size(), std::memory_order_relaxed);
  delivered_recovery_ = s.recovery_events;
  quarantine_.assign(s.quarantine.begin(), s.quarantine.end());
  epoch_quarantine_.assign(s.epoch_quarantine.begin(),
                           s.epoch_quarantine.end());
  // Restore the delivered-counter deltas so the resumed run's final stats
  // equal the uninterrupted run's (retry counters excepted by contract).
  m_.samples.add(s.samples);
  m_.batches.add(s.batches);
  m_.bytes_at_rest.add(s.bytes_at_rest);
  m_.samples_skipped.add(s.samples_skipped);
  m_.fallbacks.add(s.fallbacks);
  if (s.degraded) m_.degraded.set(1);
}

std::uint64_t DataPipeline::config_fingerprint() const {
  std::uint64_t fp = 0x53474B5053455141ULL;
  auto mix = [&fp](std::uint64_t v) {
    std::uint64_t state = fp ^ v;
    fp = splitmix64(state);
  };
  mix(dataset_.size());
  mix(static_cast<std::uint64_t>(dataset_.format()));
  mix(static_cast<std::uint64_t>(config_.batch_size));
  mix(config_.seed);
  mix(config_.shuffle ? 1 : 0);
  mix(static_cast<std::uint64_t>(config_.decode_placement));
  mix(config_.ops.size());
  mix(injector_ != nullptr ? injector_->seed() : 0);
  mix(config_.order_fingerprint);
  return fp;
}

std::vector<std::size_t> DataPipeline::quarantine() const {
  std::vector<std::size_t> ids = quarantine_;
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

std::vector<std::size_t> DataPipeline::epoch_quarantine() const {
  std::vector<std::size_t> ids = epoch_quarantine_;
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

PipelineStats DataPipeline::stats() const {
  PipelineStats s;
  s.samples = m_.samples.value();
  s.batches = m_.batches.value();
  s.bytes_at_rest = m_.bytes_at_rest.value();
  s.samples_skipped = m_.samples_skipped.value();
  s.retries = m_.retries.value();
  s.fallbacks = m_.fallbacks.value();
  s.degraded = m_.degraded.value() != 0;
  if (config_.decode_placement == codec::Placement::kGpu) {
    s.decode_gpu_seconds = m_.decode_gpu_seconds.sum();
    s.gpu.wall_seconds = s.decode_gpu_seconds;
    s.gpu.warps = m_.gpu_warps.value();
    s.gpu.bytes_read = m_.gpu_bytes_read.value();
    s.gpu.bytes_written = m_.gpu_bytes_written.value();
    s.gpu.lockstep_ops = m_.gpu_lockstep_ops.value();
    s.gpu.divergent_branches = m_.gpu_divergent_branches.value();
  } else {
    // Decode and augmentation both burn host CPU on the worker pool.
    s.decode_cpu_seconds =
        m_.decode_seconds.sum() + m_.ops_seconds.sum();
  }
  return s;
}

}  // namespace sciprep::pipeline
