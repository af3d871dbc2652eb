#include "workloads.hpp"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <optional>

#include "sciprep/codec/cam_codec.hpp"
#include "sciprep/codec/cosmo_codec.hpp"
#include "sciprep/common/crc.hpp"
#include "sciprep/common/error.hpp"
#include "sciprep/common/format.hpp"
#include "sciprep/common/rng.hpp"
#include "sciprep/compress/gzip.hpp"
#include "sciprep/data/cam_gen.hpp"
#include "sciprep/data/cosmo_gen.hpp"
#include "sciprep/io/tfrecord.hpp"
#include "sciprep/pipeline/ops.hpp"
#include "sciprep/serve/service.hpp"
#include "sciprep/shard/digest.hpp"
#include "sciprep/wire/client.hpp"
#include "sciprep/wire/server.hpp"

namespace loadbench {

using sciprep::Bytes;
using sciprep::ByteSpan;
using sciprep::fmt;
using sciprep::pipeline::Batch;
using sciprep::pipeline::DataPipeline;
using sciprep::pipeline::InMemoryDataset;
using sciprep::pipeline::PipelineConfig;
using sciprep::pipeline::StorageFormat;
namespace codec = sciprep::codec;
namespace io = sciprep::io;
namespace serve = sciprep::serve;
namespace shard = sciprep::shard;
namespace wire = sciprep::wire;

namespace {

constexpr int kCosmoDim = 64;
constexpr int kCamHeight = 192;
constexpr int kCamWidth = 1152;
constexpr int kCamChannels = 16;
/// The stored set of cosmo-local must not fit the last-level cache.
constexpr std::uint64_t kLlcMultiple = 4;
/// Assumed when the host does not report its LLC.
constexpr std::uint64_t kDefaultLlcBytes = 105ull << 20;
/// Stated bounds on the fraction of decoded values > 10% off the FP32
/// reference: CosmoFlow's FP16 log1p is near-exact, DeepCAM's differential
/// code drops sensor noise (the paper reports roughly 3%).
constexpr double kCosmoLossyBound = 1e-3;
constexpr double kCamLossyBound = 0.10;
/// The reported lossy-value fraction is taken on this many samples generated
/// under a fixed seed, so it measures the codec, not the run's seed: over a
/// few samples it varies by ~35% from seed to seed. The run's own samples are
/// still held to the bound.
constexpr std::size_t kCalibrationSamples = 2;
constexpr std::uint64_t kCalibrationSeed = 20220530;
/// Each isolated inner-layer measurement runs at least this long.
constexpr double kIsolatedBudgetSeconds = 0.3;

enum class Family { kCosmo, kCam };

struct Config {
  const char* name;
  Family family;
  StorageFormat format;
  bool served;
  std::size_t distinct;  // generated samples
  std::size_t stored;    // stored-set size; 0 sizes it from the LLC
  int batch;
  bool flip_op;
  bool cache;
  std::size_t workers;  // decode workers of the pipeline or service
};

// Why each workload exists is in loadbench/README.md. Stored sets are built
// from a few generated samples copied into distinct buffers: generating a
// dim-64 universe costs ~0.12 s and gzip-compressing one ~0.45 s. Codec
// decode cost varies by ~20% between universes, so cosmo-local averages over
// 12 of them. The gzip path varies less: its mean over 4 universes moved by
// about +-3% between seeds, well inside the host's run-to-run drift.
// cosmo-served-cached runs one service worker: its hits need next to no
// decode, and a second worker only adds a fifth busy thread (client, two
// connection handlers, workers) on a 4-core host, which puts the wait's p90
// on a contention knee that any outside load moves.
const Config kConfigs[] = {
    {"cosmo-local", Family::kCosmo, StorageFormat::kEncoded, false, 12, 0, 4,
     false, false, 2},
    {"cosmo-gzip", Family::kCosmo, StorageFormat::kGzipTfRecord, false, 4, 48,
     4, false, false, 2},
    {"cam-served", Family::kCam, StorageFormat::kEncoded, true, 4, 12, 2, true,
     false, 2},
    {"cosmo-served-cached", Family::kCosmo, StorageFormat::kEncoded, true, 4,
     64, 4, false, true, 1},
};

const Config& config_named(const std::string& name) {
  for (const Config& c : kConfigs) {
    if (name == c.name) return c;
  }
  throw sciprep::ConfigError(fmt("loadbench: unknown workload '{}'", name));
}

std::uint64_t value_count(Family family) {
  return family == Family::kCosmo
             ? std::uint64_t{kCosmoDim} * kCosmoDim * kCosmoDim *
                   io::CosmoSample::kRedshifts
             : std::uint64_t{kCamChannels} * kCamHeight * kCamWidth;
}

/// The two codecs, typed for encode and behind SampleCodec for the pipeline.
struct Codecs {
  codec::CosmoCodec cosmo;
  codec::CamCodec cam;

  [[nodiscard]] const codec::SampleCodec& of(Family family) const {
    return family == Family::kCosmo
               ? static_cast<const codec::SampleCodec&>(cosmo)
               : static_cast<const codec::SampleCodec&>(cam);
  }
};

/// The distinct generated samples: serialized, and in their stored form.
struct Generated {
  std::vector<Bytes> raw;
  std::vector<Bytes> stored;
  std::uint32_t digest = 0;
};

Generated generate(const Config& c, std::uint64_t seed, const Codecs& codecs,
                   SpanLog& log) {
  Generated g;
  const sciprep::data::CosmoGenerator cosmo_gen(
      sciprep::data::CosmoGenConfig{.dim = kCosmoDim, .seed = seed});
  const sciprep::data::CamGenerator cam_gen(sciprep::data::CamGenConfig{
      .height = kCamHeight,
      .width = kCamWidth,
      .channels = kCamChannels,
      .seed = seed});
  for (std::size_t i = 0; i < c.distinct; ++i) {
    Bytes stored;
    if (c.family == Family::kCosmo) {
      io::CosmoSample sample;
      {
        const ScopedSpan span(log, "data.generate", "data");
        sample = cosmo_gen.generate(i);
      }
      g.raw.push_back(sample.serialize());
      if (c.format == StorageFormat::kEncoded) {
        const ScopedSpan span(log, "codec.cosmo.encode", "codec");
        stored = codecs.cosmo.encode_sample(sample);
      } else {
        io::TfRecordWriter writer;
        writer.append(g.raw.back());
        const ScopedSpan span(log, "compress.deflate", "compress");
        stored = io::gzip_tfrecord_stream(writer.stream());
      }
    } else {
      io::CamSample sample;
      {
        const ScopedSpan span(log, "data.generate", "data");
        sample = cam_gen.generate(i);
      }
      g.raw.push_back(sample.serialize());
      const ScopedSpan span(log, "codec.cam.encode", "codec");
      stored = codecs.cam.encode_sample(sample);
    }
    g.stored.push_back(std::move(stored));
    g.digest = sciprep::crc32c(g.raw.back(), g.digest);
    g.digest = sciprep::crc32c(g.stored.back(), g.digest);
  }
  return g;
}

std::uint64_t total_bytes(const std::vector<Bytes>& distinct,
                          std::size_t count) {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < count; ++i) {
    total += distinct[i % distinct.size()].size();
  }
  return total;
}

/// Generated sample `i` in its stored form with one change that still
/// decodes, to different values, so that only the output check can catch
/// it. An encoded sample gets one byte flipped: the first from the middle
/// whose flip the decoder accepts (the middle byte if none nearby is). A
/// flipped gzip byte fails gzip's own CRC, so for gzip one count of the
/// serialized sample changes before the TFRecord write and compression.
Bytes damaged_sample(const Config& c, const codec::SampleCodec& codec,
                     const Generated& g, std::size_t i) {
  if (c.format == StorageFormat::kGzipTfRecord) {
    io::CosmoSample sample = io::CosmoSample::parse(g.raw[i]);
    std::int32_t& count = sample.counts[sample.counts.size() / 2];
    count = count == 0 ? 1 : 0;
    io::TfRecordWriter writer;
    writer.append(sample.serialize());
    return io::gzip_tfrecord_stream(writer.stream());
  }
  constexpr std::uint8_t kMask = 0x5A;
  constexpr std::size_t kTries = 64;
  const Bytes& stored = g.stored[i];
  const std::size_t middle = stored.size() / 2;
  const std::uint32_t pristine = shard::sample_crc(codec.decode_cpu(stored));
  for (std::size_t off = middle; off < std::min(stored.size(), middle + kTries);
       ++off) {
    Bytes flipped = stored;
    flipped[off] ^= kMask;
    try {
      if (shard::sample_crc(codec.decode_cpu(flipped)) != pristine) {
        return flipped;
      }
    } catch (const sciprep::Error&) {
      // The decoder rejects this flip itself; look for a silent one.
    }
  }
  Bytes flipped = stored;
  flipped[middle] ^= kMask;
  return flipped;
}

/// The stored set: `count` samples, each in its own buffer, cycling over the
/// generated ones. With `damaged` set, the middle sample is that instead.
InMemoryDataset stored_set(const Config& c, const Generated& g,
                           std::size_t count,
                           const std::optional<Bytes>& damaged) {
  InMemoryDataset ds(c.format, c.family == Family::kCosmo ? "cosmoflow"
                                                          : "deepcam");
  for (std::size_t i = 0; i < count; ++i) {
    ds.add_sample(damaged && i == count / 2 ? *damaged
                                            : g.stored[i % g.stored.size()]);
  }
  return ds;
}

/// The undamaged reference for the output check: the same `count` ids over
/// shared pristine buffers, so id i decodes exactly as the generated sample
/// i % distinct does.
InMemoryDataset reference_set(const Config& c, const Generated& g,
                              std::size_t count) {
  InMemoryDataset ds(c.format, c.family == Family::kCosmo ? "cosmoflow"
                                                          : "deepcam");
  for (std::size_t i = 0; i < count; ++i) {
    if (i < g.stored.size()) {
      ds.add_sample(g.stored[i]);
    } else {
      ds.add_shared_sample(i % g.stored.size());
    }
  }
  return ds;
}

/// FP32 preprocessed values of a serialized sample, the reference the
/// lossy-value fraction is taken against.
std::vector<float> fp32_reference(Family family, ByteSpan raw) {
  if (family == Family::kCosmo) {
    const io::CosmoSample s = io::CosmoSample::parse(raw);
    std::vector<float> ref(s.counts.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
      ref[i] = static_cast<float>(std::log1p(static_cast<double>(s.counts[i])));
    }
    return ref;
  }
  const io::CamSample s = io::CamSample::parse(raw);
  const std::size_t plane_size = s.pixel_count();
  std::vector<float> ref(s.value_count());
  for (int c = 0; c < s.channels; ++c) {
    const float* plane =
        s.image.data() + static_cast<std::size_t>(c) * plane_size;
    double sum = 0;
    for (std::size_t i = 0; i < plane_size; ++i) sum += plane[i];
    const double mean = sum / static_cast<double>(plane_size);
    double var = 0;
    for (std::size_t i = 0; i < plane_size; ++i) {
      var += (plane[i] - mean) * (plane[i] - mean);
    }
    var /= static_cast<double>(plane_size);
    const double inv = 1.0 / std::sqrt(std::max(var, 1e-12));
    for (std::size_t i = 0; i < plane_size; ++i) {
      ref[static_cast<std::size_t>(c) * plane_size + i] =
          static_cast<float>((plane[i] - mean) * inv);
    }
  }
  return ref;
}

/// Decode every sample of `g` through `pipe` (a pipeline over the reference
/// set of `g`), add the lossy-value counts to `bad`/`values`, and return the
/// CRC of each decode.
std::vector<std::uint32_t> decode_and_measure(Family family, const Generated& g,
                                              const DataPipeline& pipe,
                                              std::uint64_t& bad,
                                              std::uint64_t& values) {
  std::vector<std::uint32_t> crcs;
  for (std::size_t i = 0; i < g.raw.size(); ++i) {
    const codec::TensorF16 t = pipe.decode_sample(i);
    crcs.push_back(shard::sample_crc(t));
    const std::vector<float> want = fp32_reference(family, g.raw[i]);
    if (want.size() != t.values.size()) {
      throw sciprep::FormatError(
          fmt("loadbench: decoded {} values, reference has {}",
              t.values.size(), want.size()));
    }
    const double fraction =
        codec::fraction_above_rel_error(want, t.values, /*rel_threshold=*/0.10);
    bad += static_cast<std::uint64_t>(
        std::llround(fraction * static_cast<double>(want.size())));
    values += want.size();
  }
  return crcs;
}

PipelineConfig pipeline_config(const Config& c, std::uint64_t seed) {
  PipelineConfig cfg;
  cfg.batch_size = c.batch;
  cfg.worker_threads = c.workers;
  cfg.shuffle = true;
  cfg.seed = seed;
  cfg.prefetch = true;
  if (c.flip_op) {
    cfg.ops.push_back(std::make_shared<sciprep::pipeline::RandomFlipX>(0.5));
  }
  return cfg;
}

/// Calls f(i) for i = 0, 1, ... under a span named `name` until at least
/// `min_calls` calls and kIsolatedBudgetSeconds have passed; returns the
/// mean ms per call.
template <class F>
double isolated_ms(SpanLog& log, const char* name, const char* layer,
                   std::size_t min_calls, F&& f) {
  const std::int64_t t0 = now_ns();
  std::size_t calls = 0;
  while (calls < min_calls ||
         static_cast<double>(now_ns() - t0) / 1e9 < kIsolatedBudgetSeconds) {
    const ScopedSpan span(log, name, layer);
    f(calls);
    ++calls;
  }
  return static_cast<double>(now_ns() - t0) / 1e6 /
         static_cast<double>(calls);
}

std::uint64_t stored_count_for_llc(const Generated& g, int batch) {
  const std::uint64_t target = kLlcMultiple * llc_bytes();
  const std::uint64_t per = std::max<std::uint64_t>(
      1, total_bytes(g.stored, g.stored.size()) / g.stored.size());
  const std::uint64_t count = (target + per - 1) / per;
  const auto b = static_cast<std::uint64_t>(batch);
  return (count + b - 1) / b * b;
}

/// Shared state and checks of both workload kinds.
class WorkloadBase : public Workload {
 public:
  WorkloadBase(const Config& c, const WorkloadOptions& o, SpanLog& log)
      : c_(c), o_(o), log_(log) {}

  [[nodiscard]] bool well_formed(const Batch& batch) const override {
    if (batch.size() != c_.batch ||
        batch.order_positions.size() != batch.samples.size()) {
      return false;
    }
    const std::uint64_t values = value_count(c_.family);
    return std::all_of(batch.samples.begin(), batch.samples.end(),
                       [values](const codec::TensorF16& t) {
                         return t.values.size() == values;
                       });
  }

 protected:
  [[nodiscard]] const codec::SampleCodec& sample_codec() const {
    return codecs_.of(c_.family);
  }

  /// Generate the inputs and build the stored and reference sets.
  void build_inputs() {
    gen_ = generate(c_, o_.seed, codecs_, log_);
    count_ = c_.stored != 0 ? c_.stored : stored_count_for_llc(gen_, c_.batch);
    std::optional<Bytes> damaged;
    if (o_.damage) {
      damaged = damaged_sample(c_, sample_codec(), gen_,
                               (count_ / 2) % gen_.stored.size());
    }
    {
      const ScopedSpan span(log_, "setup.copy", "loadbench");
      dataset_ = std::make_unique<InMemoryDataset>(
          stored_set(c_, gen_, count_, damaged));
    }
    reference_ =
        std::make_unique<InMemoryDataset>(reference_set(c_, gen_, count_));
    info_.distinct = gen_.raw.size();
    info_.stored = count_;
    info_.workers = c_.workers;
    info_.raw_bytes = total_bytes(gen_.raw, count_);
    info_.stored_bytes = total_bytes(gen_.stored, count_);
    info_.digest = sciprep::crc32c(
        sciprep::as_bytes(fmt("{}/{}/{}", c_.name, o_.seed, count_)),
        gen_.digest);
    info_.detail = fmt(
        "format={} batch={} workers={} llc_bytes={} stored_set_bytes={} "
        "stored_set_over_llc={:.2f}",
        sciprep::pipeline::storage_format_name(c_.format), c_.batch, c_.workers,
        llc_bytes(), info_.stored_bytes,
        static_cast<double>(info_.stored_bytes) /
            static_cast<double>(llc_bytes()));
  }

  /// Decode the generated samples through `ref` (a pipeline over the
  /// reference set) and return their CRCs; then decode the calibration set,
  /// whose lossy-value counts are the ones reported. Both are held to the
  /// stated bound.
  std::vector<std::uint32_t> reference_crcs(const DataPipeline& ref,
                                            CheckResult& r) {
    r.lossy_bound =
        c_.family == Family::kCosmo ? kCosmoLossyBound : kCamLossyBound;
    auto within = [&r](std::uint64_t bad, std::uint64_t values) {
      return values > 0 && static_cast<double>(bad) <=
                               r.lossy_bound * static_cast<double>(values);
    };
    std::uint64_t bad = 0;
    std::uint64_t values = 0;
    std::vector<std::uint32_t> crcs =
        decode_and_measure(c_.family, gen_, ref, bad, values);
    r.lossy_ok = within(bad, values);

    Config cal = c_;
    cal.distinct = kCalibrationSamples;
    SpanLog off(false);
    const Generated g = generate(cal, kCalibrationSeed, codecs_, off);
    const InMemoryDataset ds = reference_set(cal, g, g.stored.size());
    const DataPipeline pipe(ds, sample_codec(), pipeline_config(c_, 0));
    (void)decode_and_measure(c_.family, g, pipe, r.lossy_bad, r.lossy_values);
    r.lossy_ok = r.lossy_ok && within(r.lossy_bad, r.lossy_values);
    return crcs;
  }

  /// Isolated calls shared by both kinds: codec decode, the baseline
  /// reference path, and the pipeline's configured decode path.
  void isolated_decode_metrics(std::map<std::string, double>& out,
                               const DataPipeline& pipe) {
    const std::size_t n = gen_.raw.size();
    const auto& ds = *dataset_;
    const codec::SampleCodec& codec = sample_codec();
    const double mb_per_sample =
        static_cast<double>(value_count(c_.family)) / 1e6;
    if (c_.format == StorageFormat::kEncoded) {
      const bool cosmo = c_.family == Family::kCosmo;
      const double ms = isolated_ms(
          log_, cosmo ? "codec.cosmo.decode_cpu" : "codec.cam.decode_cpu",
          "codec", n, [&](std::size_t i) {
            (void)codec.decode_cpu(ds.sample(i % ds.size()));
          });
      if (cosmo) {
        out["codec.cosmo.decode_ms_per_sample"] = ms;
        out["codec.cosmo.decode_out_mb_per_s"] =
            mb_per_sample * sizeof(sciprep::Half) / (ms / 1e3);
      } else {
        out["codec.cam.decode_ms_per_sample"] = ms;
        out["codec.cam.decode_in_mb_per_s"] =
            mb_per_sample * sizeof(float) / (ms / 1e3);
      }
    } else {
      std::uint64_t inflated = 0;
      std::uint64_t calls = 0;
      std::vector<Bytes> plain(n);
      const double inflate_ms = isolated_ms(
          log_, "compress.gzip_decompress", "compress", n, [&](std::size_t i) {
            Bytes out_bytes = sciprep::compress::gzip_decompress(
                ds.sample(i % ds.size()));
            inflated += out_bytes.size();
            ++calls;
            plain[i % n] = std::move(out_bytes);
          });
      out["compress.inflate_mb_per_s"] =
          static_cast<double>(inflated) / static_cast<double>(calls) / 1e6 /
          (inflate_ms / 1e3);
      out["io.tfrecord_parse_ms_per_sample"] = isolated_ms(
          log_, "io.tfrecord_parse", "io", n, [&](std::size_t i) {
            const auto records = io::TfRecordReader::read_all(plain[i % n]);
            (void)io::CosmoSample::parse(records.front());
          });
    }
    if (c_.family == Family::kCosmo) {
      out["codec.cosmo.reference_ms_per_sample"] = isolated_ms(
          log_, "codec.cosmo.reference_preprocess", "codec", n,
          [&](std::size_t i) {
            (void)codec.reference_preprocess(gen_.raw[i % n]);
          });
    }
    out["pipeline.decode_path_ms_per_sample"] = isolated_ms(
        log_, "pipeline.decode_sample", "pipeline", n,
        [&](std::size_t i) { (void)pipe.decode_sample(i % ds.size()); });
    if (c_.flip_op) {
      codec::TensorF16 tensor = codec.decode_cpu(gen_.stored.front());
      const sciprep::pipeline::RandomFlipX flip(0.5);
      out["pipeline.ops_ms_per_sample"] = isolated_ms(
          log_, "pipeline.random_flip_x", "pipeline", n, [&](std::size_t i) {
            sciprep::Rng rng(i);
            flip.apply(tensor, rng);
          });
    }
  }

  const Config& c_;
  WorkloadOptions o_;
  SpanLog& log_;
  Codecs codecs_;
  Generated gen_;
  std::size_t count_ = 0;
  std::unique_ptr<InMemoryDataset> dataset_;
  std::unique_ptr<InMemoryDataset> reference_;
};

/// cosmo-local and cosmo-gzip: one in-process DataPipeline, one consumer.
class LocalWorkload final : public WorkloadBase {
 public:
  using WorkloadBase::WorkloadBase;

  void setup() override {
    const ScopedSpan root(log_, "setup", "loadbench");
    build_inputs();
    {
      const ScopedSpan span(log_, "pipeline.construct", "pipeline");
      pipeline_ = std::make_unique<DataPipeline>(
          *dataset_, sample_codec(), pipeline_config(c_, o_.seed));
    }
    const ScopedSpan warm(log_, "setup.warmup", "loadbench");
    Batch batch;
    while (pull(batch)) {
    }
    start_epoch(1);
  }

  bool next(Batch& batch) override {
    if (pull(batch)) return true;
    start_epoch(epoch_ + 1);
    return pull(batch);
  }

  CheckResult check() override {
    CheckResult r;
    try {
      const DataPipeline ref(*reference_, sample_codec(),
                             pipeline_config(c_, o_.seed));
      const std::vector<std::uint32_t> crcs = reference_crcs(ref, r);
      // The next epoch, drained whole, must deliver exactly the multiset of
      // per-sample CRCs of direct decodes of the pristine samples.
      std::map<std::uint32_t, std::uint64_t> expected;
      for (std::size_t i = 0; i < count_; ++i) {
        ++expected[crcs[i % crcs.size()]];
      }
      start_epoch(epoch_ + 1);
      Batch batch;
      while (pipeline_->next_batch(batch)) {
        ++r.batches;
        bool ok = well_formed(batch);
        for (const codec::TensorF16& t : batch.samples) {
          const auto it = expected.find(shard::sample_crc(t));
          if (it == expected.end() || it->second == 0) {
            ok = false;
          } else {
            --it->second;
          }
        }
        if (!ok) ++r.mismatched;
      }
      const bool all_seen =
          std::all_of(expected.begin(), expected.end(),
                      [](const auto& kv) { return kv.second == 0; });
      if (!all_seen && r.mismatched == 0) ++r.mismatched;
      if (r.mismatched != 0) {
        r.error = fmt("{} of {} batches of epoch {} differ from the reference",
                      r.mismatched, r.batches, epoch_);
      }
    } catch (const std::exception& e) {
      ++r.batches;
      ++r.mismatched;
      r.error = e.what();
    }
    return r;
  }

  void layer_metrics(std::map<std::string, double>& out, double) override {
    const auto stats = pipeline_->stats();
    out["pipeline.samples_skipped"] =
        static_cast<double>(stats.samples_skipped);
    out["pipeline.retries"] = static_cast<double>(stats.retries);
    isolated_decode_metrics(out, *pipeline_);
  }

 private:
  bool pull(Batch& batch) {
    const ScopedSpan span(log_, "pipeline.next_batch", "pipeline");
    return pipeline_->next_batch(batch);
  }

  void start_epoch(std::uint64_t epoch) {
    const ScopedSpan span(log_, "pipeline.start_epoch", "pipeline");
    epoch_ = epoch;
    pipeline_->start_epoch(epoch);
  }

  std::unique_ptr<DataPipeline> pipeline_;
  std::uint64_t epoch_ = 0;
};

/// cam-served and cosmo-served-cached: two tenants on one DataService behind
/// a WireServer, two WireClients driven round-robin from this thread.
class ServedWorkload final : public WorkloadBase {
 public:
  static constexpr std::size_t kTenants = 2;

  using WorkloadBase::WorkloadBase;

  ~ServedWorkload() override { stop_wire(); }

  void setup() override {
    const ScopedSpan root(log_, "setup", "loadbench");
    build_inputs();
    for (std::size_t k = 0; k < kTenants; ++k) {
      serve::TenantSpec spec;
      spec.name = fmt("tenant-{}", k);
      spec.pipeline = pipeline_config(c_, sciprep::split_seed(o_.seed, k, 0));
      // The stream outlives any run: the benchmark stops asking, not the
      // service stopping.
      spec.epochs = std::uint64_t{1} << 30;
      specs_.push_back(std::move(spec));
    }
    {
      const ScopedSpan span(log_, "serve.start", "serve");
      service_ = std::make_unique<serve::DataService>(
          *dataset_, sample_codec(), service_config(registry_));
    }
    {
      const ScopedSpan span(log_, "wire.start", "wire");
      wire::WireServerConfig wcfg;
      wcfg.socket_path = fmt("{}/loadbench-{}.sock", o_.work_dir, ::getpid());
      server_ = std::make_unique<wire::WireServer>(*service_, specs_, wcfg);
      server_->start();
    }
    for (const serve::TenantSpec& spec : specs_) {
      wire::WireClientConfig ccfg;
      ccfg.socket_path = server_->socket_path();
      ccfg.tenant = spec.name;
      // The output check computes its own digest outside the timed region.
      ccfg.record_digest = false;
      clients_.push_back(std::make_unique<wire::WireClient>(ccfg));
      const ScopedSpan span(log_, "wire.attach", "wire");
      clients_.back()->attach();
    }
    for (std::size_t k = 0; k < kTenants; ++k) {
      const int session = server_->tenant_session(specs_[k].name);
      if (session < 0 ||
          service_->session_admission(session) !=
              serve::Admission::kAdmitted ||
          clients_[k]->degraded()) {
        throw sciprep::Error(
            fmt("loadbench: tenant {} was not admitted", specs_[k].name));
      }
    }
    const ScopedSpan warm(log_, "setup.warmup", "loadbench");
    Batch batch;
    for (std::size_t i = 0; i < kTenants * batches_per_epoch(); ++i) {
      if (!next(batch)) throw sciprep::Error("loadbench: stream ended early");
    }
  }

  bool next(Batch& batch) override {
    const std::size_t k = turn_++ % kTenants;
    return pull(k, batch);
  }

  CheckResult check() override {
    CheckResult r;
    try {
      {
        const DataPipeline ref(*reference_, sample_codec(),
                               pipeline_config(c_, o_.seed));
        (void)reference_crcs(ref, r);
      }
      for (std::size_t k = 0; k < kTenants; ++k) check_tenant(k, r);
      if (r.mismatched != 0 && r.error.empty()) {
        r.error = fmt("{} of {} batches differ from the reference",
                      r.mismatched, r.batches);
      }
    } catch (const std::exception& e) {
      ++r.batches;
      ++r.mismatched;
      r.error = e.what();
    }
    return r;
  }

  [[nodiscard]] std::pair<std::uint64_t, std::uint64_t> cache_counters()
      const override {
    return {registry_.counter("serve.cache.hits_total").value(),
            registry_.counter("serve.cache.misses_total").value()};
  }

  void layer_metrics(std::map<std::string, double>& out,
                     double seconds) override {
    double skipped = 0;
    double retries = 0;
    for (const serve::TenantSpec& spec : specs_) {
      auto& reg = service_->tenant_metrics(server_->tenant_session(spec.name));
      skipped += static_cast<double>(
          reg.counter("pipeline.samples_skipped_total").value());
      retries +=
          static_cast<double>(reg.counter("pipeline.retries_total").value());
    }
    out["pipeline.samples_skipped"] = skipped;
    out["pipeline.retries"] = retries;
    for (const auto& client : clients_) {
      const wire::WireClientStats& s = client->stats();
      out["wire.reconnects"] += static_cast<double>(s.reconnects);
      out["wire.retries"] += static_cast<double>(s.retries);
      out["wire.corrupt_frames"] += static_cast<double>(s.corrupt_frames);
    }
    // Isolated calls run with the serving stack stopped, so no prefetch
    // competes with them.
    stop_wire();
    service_.reset();
    {
      const DataPipeline probe(*dataset_, sample_codec(), specs_[0].pipeline);
      isolated_decode_metrics(out, probe);
    }
    // The serve layer alone: the same tenant specs drained in-process from
    // a fresh service.
    sciprep::obs::MetricsRegistry registry;
    serve::DataService service(*dataset_, sample_codec(),
                               service_config(registry));
    std::vector<int> sessions;
    for (const serve::TenantSpec& spec : specs_) {
      const auto opened = service.open_session(spec);
      if (opened.admission != serve::Admission::kAdmitted) {
        throw sciprep::Error(
            fmt("loadbench: in-process tenant {} was not admitted", spec.name));
      }
      sessions.push_back(opened.session);
    }
    Batch batch;
    {
      const ScopedSpan warm(log_, "serve.warmup", "loadbench");
      for (std::size_t i = 0; i < batches_per_epoch(); ++i) {
        for (const int s : sessions) {
          const ScopedSpan span(log_, "serve.next_batch", "serve");
          (void)service.next_batch(s, batch);
        }
      }
    }
    const int root = log_.open("serve.drain", "loadbench");
    const std::int64_t end =
        now_ns() + static_cast<std::int64_t>(std::max(1.0, seconds / 4) * 1e9);
    for (std::size_t turn = 0; now_ns() < end; ++turn) {
      const ScopedSpan span(log_, "serve.next_batch", "serve");
      (void)service.next_batch(sessions[turn % sessions.size()], batch);
    }
    log_.close(root);
    const std::vector<double> ms = log_.durations_ms("serve.next_batch", root);
    out["serve.next_batch_ms.p50"] = percentile(ms, 0.5);
    out["serve.next_batch_ms.p90"] = percentile(ms, 0.9);
  }

 private:
  /// Detach every client, then stop the server and join its threads.
  void stop_wire() noexcept {
    for (const auto& client : clients_) {
      try {
        (void)client->detach();
      } catch (const std::exception& e) {
        std::fprintf(stderr, "loadbench: detach failed: %s\n", e.what());
      }
    }
    clients_.clear();
    if (server_) server_->stop();
    server_.reset();
  }

  [[nodiscard]] std::size_t batches_per_epoch() const {
    const auto b = static_cast<std::size_t>(c_.batch);
    return (count_ + b - 1) / b;
  }

  serve::ServiceConfig service_config(
      sciprep::obs::MetricsRegistry& registry) const {
    serve::ServiceConfig scfg;
    scfg.worker_threads = c_.workers;
    scfg.metrics = &registry;
    scfg.cache.capacity_bytes = 0;
    if (c_.cache) {
      // Room for the whole decoded set, so every lookup after the warm-up
      // epoch hits.
      const std::uint64_t per_sample =
          serve::tensor_bytes(sample_codec().decode_cpu(gen_.stored.front()));
      scfg.cache.capacity_bytes = count_ * per_sample + (per_sample << 2);
    }
    return scfg;
  }

  bool pull(std::size_t k, Batch& batch) {
    const ScopedSpan span(log_, "wire.next", "wire");
    const bool ok = clients_[k]->next(batch);
    if (ok) last_epoch_[k] = batch.epoch;
    return ok;
  }

  /// Finish tenant k's epoch in progress, record the next one whole through
  /// the wire, and compare it with an in-process DataPipeline of the same
  /// tenant config over the pristine reference set.
  void check_tenant(std::size_t k, CheckResult& r) {
    Batch batch;
    const std::uint64_t current = last_epoch_[k];
    do {
      if (!pull(k, batch)) throw sciprep::Error("loadbench: stream ended");
    } while (batch.epoch == current);
    const std::uint64_t epoch = batch.epoch;
    shard::GlobalStreamDigest got;
    std::vector<std::vector<std::uint64_t>> batch_positions;
    while (batch.epoch == epoch) {
      ++r.batches;
      if (!well_formed(batch)) ++r.mismatched;
      batch_positions.push_back(batch.order_positions);
      for (std::size_t i = 0; i < batch.samples.size(); ++i) {
        got.record(epoch, batch.order_positions[i],
                   shard::sample_crc(batch.samples[i]));
      }
      if (!pull(k, batch)) throw sciprep::Error("loadbench: stream ended");
    }
    DataPipeline ref(*reference_, sample_codec(), specs_[k].pipeline);
    ref.start_epoch(epoch);
    shard::GlobalStreamDigest want;
    while (ref.next_batch(batch)) {
      for (std::size_t i = 0; i < batch.samples.size(); ++i) {
        want.record(epoch, batch.order_positions[i],
                    shard::sample_crc(batch.samples[i]));
      }
    }
    if (got.epoch_digest(epoch) == want.epoch_digest(epoch)) return;
    const auto& want_entries = want.entries(epoch);
    const auto& got_entries = got.entries(epoch);
    std::uint64_t bad = 0;
    for (const auto& positions : batch_positions) {
      const bool differs =
          std::any_of(positions.begin(), positions.end(), [&](auto p) {
            const auto w = want_entries.find(p);
            return w == want_entries.end() || w->second != got_entries.at(p);
          });
      if (differs) ++bad;
    }
    r.mismatched += std::max<std::uint64_t>(bad, 1);
    r.error = fmt("tenant {} epoch {}: wire digest {} != in-process digest {}",
                  specs_[k].name, epoch, got.epoch_digest(epoch),
                  want.epoch_digest(epoch));
  }

  mutable sciprep::obs::MetricsRegistry registry_;  // outlives service_
  std::vector<serve::TenantSpec> specs_;
  std::unique_ptr<serve::DataService> service_;
  std::unique_ptr<wire::WireServer> server_;
  std::vector<std::unique_ptr<wire::WireClient>> clients_;
  std::size_t turn_ = 0;
  std::uint64_t last_epoch_[kTenants] = {};
};

}  // namespace

std::uint64_t llc_bytes() {
  const long reported = ::sysconf(_SC_LEVEL3_CACHE_SIZE);
  return reported > 0 ? static_cast<std::uint64_t>(reported) : kDefaultLlcBytes;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const Config& c : kConfigs) out.emplace_back(c.name);
    return out;
  }();
  return names;
}

std::unique_ptr<Workload> make_workload(const WorkloadOptions& options,
                                        SpanLog& log) {
  const Config& c = config_named(options.name);
  if (c.served) return std::make_unique<ServedWorkload>(c, options, log);
  return std::make_unique<LocalWorkload>(c, options, log);
}

std::string validate_inputs(const std::string& name, std::uint64_t seed) {
  const Config& c = config_named(name);
  SpanLog log(false);
  const Codecs codecs;
  const Generated g = generate(c, seed, codecs, log);
  const InMemoryDataset ds = reference_set(c, g, g.stored.size());
  const DataPipeline pipe(ds, codecs.of(c.family), pipeline_config(c, seed));
  for (std::size_t i = 0; i < ds.size(); ++i) {
    const std::size_t values = pipe.decode_sample(i).values.size();
    if (values != value_count(c.family)) {
      throw sciprep::FormatError(
          fmt("loadbench: {} sample {} decodes to {} values, expected {}",
              name, i, values, value_count(c.family)));
    }
  }
  return fmt("{} seed={} distinct={} values_per_sample={} raw_bytes={} "
             "stored_bytes={} digest={}",
             name, seed, g.raw.size(), value_count(c.family),
             total_bytes(g.raw, g.raw.size()),
             total_bytes(g.stored, g.stored.size()), g.digest);
}

}  // namespace loadbench
