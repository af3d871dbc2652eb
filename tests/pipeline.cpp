// Tests for the data pipeline: dataset variants, decode paths per storage
// format, batching/shuffling/prefetching, placement, ops, and stats.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>

#include "sciprep/codec/cam_codec.hpp"
#include "sciprep/codec/cosmo_codec.hpp"
#include "sciprep/common/error.hpp"
#include "sciprep/pipeline/pipeline.hpp"

namespace sciprep::pipeline {
namespace {

data::CosmoGenerator cosmo_gen(int dim = 16) {
  data::CosmoGenConfig cfg;
  cfg.dim = dim;
  cfg.seed = 11;
  return data::CosmoGenerator(cfg);
}

data::CamGenerator cam_gen() {
  data::CamGenConfig cfg;
  cfg.height = 48;
  cfg.width = 64;
  cfg.channels = 4;
  cfg.seed = 12;
  return data::CamGenerator(cfg);
}

TEST(Dataset, CosmoVariantsShrinkAsExpected) {
  const auto gen = cosmo_gen();
  const codec::CosmoCodec codec;
  const auto raw =
      InMemoryDataset::make_cosmo(gen, 4, StorageFormat::kRawTfRecord);
  const auto gz =
      InMemoryDataset::make_cosmo(gen, 4, StorageFormat::kGzipTfRecord);
  const auto enc =
      InMemoryDataset::make_cosmo(gen, 4, StorageFormat::kEncoded, &codec);
  EXPECT_EQ(raw.size(), 4u);
  EXPECT_LT(gz.total_bytes(), raw.total_bytes());
  EXPECT_LT(enc.total_bytes(), raw.total_bytes());
  EXPECT_EQ(raw.workload(), "cosmoflow");
}

TEST(Dataset, SharedSamplesDoNotMultiplyMemoryButCountBytes) {
  const auto gen = cosmo_gen();
  const auto small =
      InMemoryDataset::make_cosmo(gen, 2, StorageFormat::kRawTfRecord);
  const auto big = InMemoryDataset::make_cosmo(
      gen, 10, StorageFormat::kRawTfRecord, nullptr, /*generate_count=*/2);
  EXPECT_EQ(big.size(), 10u);
  EXPECT_EQ(big.total_bytes(), small.total_bytes() * 5);
  // Repeats alias the same storage.
  EXPECT_EQ(big.sample(0).data(), big.sample(2).data());
}

TEST(Dataset, CamRejectsTfRecordFormat) {
  EXPECT_THROW(
      InMemoryDataset::make_cam(cam_gen(), 2, StorageFormat::kRawTfRecord),
      ConfigError);
}

TEST(Pipeline, BaselinePathMatchesReferencePreprocess) {
  const auto gen = cosmo_gen();
  const codec::CosmoCodec codec;
  const auto ds =
      InMemoryDataset::make_cosmo(gen, 3, StorageFormat::kRawTfRecord);
  PipelineConfig cfg;
  cfg.shuffle = false;
  cfg.prefetch = false;
  DataPipeline pipe(ds, codec, cfg);
  const codec::TensorF16 got = pipe.decode_sample(1);
  const codec::TensorF16 want =
      codec::CosmoCodec::reference_preprocess_sample(gen.generate(1));
  ASSERT_EQ(got.values.size(), want.values.size());
  for (std::size_t i = 0; i < got.values.size(); ++i) {
    ASSERT_EQ(got.values[i].bits(), want.values[i].bits());
  }
}

TEST(Pipeline, GzipPathDecodesIdentically) {
  const auto gen = cosmo_gen();
  const codec::CosmoCodec codec;
  const auto raw =
      InMemoryDataset::make_cosmo(gen, 2, StorageFormat::kRawTfRecord);
  const auto gz =
      InMemoryDataset::make_cosmo(gen, 2, StorageFormat::kGzipTfRecord);
  PipelineConfig cfg;
  cfg.shuffle = false;
  cfg.prefetch = false;
  DataPipeline raw_pipe(raw, codec, cfg);
  DataPipeline gz_pipe(gz, codec, cfg);
  const auto a = raw_pipe.decode_sample(0);
  const auto b = gz_pipe.decode_sample(0);
  ASSERT_EQ(a.values.size(), b.values.size());
  for (std::size_t i = 0; i < a.values.size(); ++i) {
    ASSERT_EQ(a.values[i].bits(), b.values[i].bits());
  }
}

TEST(Pipeline, EncodedCpuAndGpuPathsAgree) {
  const auto gen = cosmo_gen();
  const codec::CosmoCodec codec;
  const auto ds =
      InMemoryDataset::make_cosmo(gen, 2, StorageFormat::kEncoded, &codec);
  PipelineConfig cpu_cfg;
  cpu_cfg.shuffle = false;
  cpu_cfg.prefetch = false;
  DataPipeline cpu_pipe(ds, codec, cpu_cfg);

  sim::SimGpu gpu({.sm_count = 4, .warps_per_sm = 2});
  PipelineConfig gpu_cfg = cpu_cfg;
  gpu_cfg.decode_placement = codec::Placement::kGpu;
  DataPipeline gpu_pipe(ds, codec, gpu_cfg, &gpu);

  const auto a = cpu_pipe.decode_sample(0);
  const auto b = gpu_pipe.decode_sample(0);
  ASSERT_EQ(a.values.size(), b.values.size());
  for (std::size_t i = 0; i < a.values.size(); ++i) {
    ASSERT_EQ(a.values[i].bits(), b.values[i].bits());
  }
}

TEST(Pipeline, GpuPlacementRequiresEncodedFormatAndDevice) {
  const auto gen = cosmo_gen();
  const codec::CosmoCodec codec;
  const auto raw =
      InMemoryDataset::make_cosmo(gen, 2, StorageFormat::kRawTfRecord);
  PipelineConfig cfg;
  cfg.decode_placement = codec::Placement::kGpu;
  EXPECT_THROW(DataPipeline(raw, codec, cfg), ConfigError);
  const auto enc =
      InMemoryDataset::make_cosmo(gen, 2, StorageFormat::kEncoded, &codec);
  EXPECT_THROW(DataPipeline(enc, codec, cfg), ConfigError);  // no SimGpu
}

TEST(Pipeline, EpochCoversEverySampleOnce) {
  const auto gen = cosmo_gen(8);
  const codec::CosmoCodec codec;
  const auto ds =
      InMemoryDataset::make_cosmo(gen, 10, StorageFormat::kEncoded, &codec);
  PipelineConfig cfg;
  cfg.batch_size = 3;
  cfg.seed = 5;
  DataPipeline pipe(ds, codec, cfg);
  EXPECT_EQ(pipe.batches_per_epoch(), 4u);

  Batch batch;
  std::size_t samples = 0;
  std::size_t batches = 0;
  while (pipe.next_batch(batch)) {
    samples += static_cast<std::size_t>(batch.size());
    EXPECT_EQ(batch.index_in_epoch, batches);
    ++batches;
  }
  EXPECT_EQ(samples, 10u);
  EXPECT_EQ(batches, 4u);
  EXPECT_EQ(pipe.stats().samples, 10u);
  EXPECT_EQ(pipe.stats().batches, 4u);
  EXPECT_GT(pipe.stats().bytes_at_rest, 0u);
}

TEST(Pipeline, ShuffleDiffersAcrossEpochsAndIsSeeded) {
  const auto gen = cosmo_gen(8);
  const codec::CosmoCodec codec;
  const auto ds =
      InMemoryDataset::make_cosmo(gen, 12, StorageFormat::kEncoded, &codec);
  PipelineConfig cfg;
  cfg.batch_size = 12;
  cfg.seed = 9;
  cfg.prefetch = false;

  auto epoch_labels = [&](DataPipeline& pipe, std::uint64_t epoch) {
    pipe.start_epoch(epoch);
    Batch b;
    EXPECT_TRUE(pipe.next_batch(b));
    std::vector<float> firsts;
    for (const auto& s : b.samples) {
      firsts.push_back(s.float_labels.at(0));
    }
    return firsts;
  };

  DataPipeline pipe(ds, codec, cfg);
  const auto e0 = epoch_labels(pipe, 0);
  const auto e1 = epoch_labels(pipe, 1);
  EXPECT_NE(e0, e1) << "different epochs must shuffle differently";
  // Same seed + epoch reproduces the order exactly.
  DataPipeline pipe2(ds, codec, cfg);
  EXPECT_EQ(epoch_labels(pipe2, 0), e0);
  // Epoch order is a permutation, not a resampling.
  auto sorted0 = e0;
  auto sorted1 = e1;
  std::sort(sorted0.begin(), sorted0.end());
  std::sort(sorted1.begin(), sorted1.end());
  EXPECT_EQ(sorted0, sorted1);
}

TEST(Pipeline, PrefetchProducesSameBatchesAsSynchronous) {
  const auto gen = cosmo_gen(8);
  const codec::CosmoCodec codec;
  const auto ds =
      InMemoryDataset::make_cosmo(gen, 9, StorageFormat::kEncoded, &codec);
  PipelineConfig sync_cfg;
  sync_cfg.batch_size = 2;
  sync_cfg.seed = 3;
  sync_cfg.prefetch = false;
  PipelineConfig pre_cfg = sync_cfg;
  pre_cfg.prefetch = true;

  DataPipeline sync_pipe(ds, codec, sync_cfg);
  DataPipeline pre_pipe(ds, codec, pre_cfg);
  Batch a;
  Batch b;
  while (true) {
    const bool has_a = sync_pipe.next_batch(a);
    const bool has_b = pre_pipe.next_batch(b);
    ASSERT_EQ(has_a, has_b);
    if (!has_a) break;
    ASSERT_EQ(a.size(), b.size());
    for (int i = 0; i < a.size(); ++i) {
      const auto& sa = a.samples[static_cast<std::size_t>(i)];
      const auto& sb = b.samples[static_cast<std::size_t>(i)];
      ASSERT_EQ(sa.float_labels, sb.float_labels);
      ASSERT_EQ(sa.values.size(), sb.values.size());
    }
  }
}

TEST(Pipeline, CamWithFlipOpsKeepsLabelsConsistent) {
  const auto gen = cam_gen();
  const codec::CamCodec codec;
  const auto ds =
      InMemoryDataset::make_cam(gen, 4, StorageFormat::kEncoded, &codec);
  PipelineConfig cfg;
  cfg.batch_size = 4;
  cfg.shuffle = false;
  cfg.prefetch = false;
  cfg.ops = {std::make_shared<RandomFlipX>(1.0)};  // always flip
  DataPipeline pipe(ds, codec, cfg);
  Batch batch;
  ASSERT_TRUE(pipe.next_batch(batch));

  // Compare against an unflipped pipeline: values must be mirrored in x.
  PipelineConfig plain = cfg;
  plain.ops.clear();
  DataPipeline plain_pipe(ds, codec, plain);
  Batch plain_batch;
  ASSERT_TRUE(plain_pipe.next_batch(plain_batch));

  const auto& f = batch.samples[0];
  const auto& p = plain_batch.samples[0];
  const auto c = f.shape[0];
  const auto h = f.shape[1];
  const auto w = f.shape[2];
  for (std::uint64_t ci = 0; ci < c; ++ci) {
    for (std::uint64_t y = 0; y < h; ++y) {
      for (std::uint64_t x = 0; x < w; ++x) {
        ASSERT_EQ(f.values[(ci * h + y) * w + x].bits(),
                  p.values[(ci * h + y) * w + (w - 1 - x)].bits());
      }
    }
  }
  for (std::uint64_t y = 0; y < h; ++y) {
    for (std::uint64_t x = 0; x < w; ++x) {
      ASSERT_EQ(f.byte_labels[y * w + x], p.byte_labels[y * w + (w - 1 - x)]);
    }
  }
}

TEST(Pipeline, StatsTrackDecodeWork) {
  const auto gen = cosmo_gen();
  const codec::CosmoCodec codec;
  const auto ds =
      InMemoryDataset::make_cosmo(gen, 4, StorageFormat::kEncoded, &codec);
  sim::SimGpu gpu({.sm_count = 4, .warps_per_sm = 2});
  PipelineConfig cfg;
  cfg.batch_size = 2;
  cfg.prefetch = false;
  cfg.decode_placement = codec::Placement::kGpu;
  DataPipeline pipe(ds, codec, cfg, &gpu);
  Batch batch;
  while (pipe.next_batch(batch)) {
  }
  EXPECT_EQ(pipe.stats().samples, 4u);
  EXPECT_GT(pipe.stats().gpu.warps, 0u);
  EXPECT_GT(pipe.stats().gpu.bytes_written, 0u);
  EXPECT_DOUBLE_EQ(pipe.stats().decode_cpu_seconds, 0.0);
}

TEST(Pipeline, StatsAreAssembledFromMetricsRegistry) {
  const auto gen = cosmo_gen();
  const codec::CosmoCodec codec;
  const auto ds =
      InMemoryDataset::make_cosmo(gen, 6, StorageFormat::kEncoded, &codec);
  obs::MetricsRegistry registry;
  PipelineConfig cfg;
  cfg.batch_size = 2;
  cfg.metrics = &registry;  // injected registry backs stats()
  DataPipeline pipe(ds, codec, cfg);
  EXPECT_EQ(&pipe.metrics(), &registry);
  Batch batch;
  while (pipe.next_batch(batch)) {
  }
  const PipelineStats stats = pipe.stats();
  EXPECT_EQ(stats.samples, 6u);
  EXPECT_EQ(stats.samples, registry.counter_value("pipeline.samples_total"));
  EXPECT_EQ(stats.batches, registry.counter_value("pipeline.batches_total"));
  EXPECT_EQ(stats.bytes_at_rest,
            registry.counter_value("pipeline.bytes_at_rest_total"));
  // CPU decode time is the decode-stage histogram's sum (no ops configured,
  // so the ops histogram contributes nothing).
  const auto& decode_hist =
      registry.histogram("pipeline.stage.decode_seconds");
  EXPECT_EQ(decode_hist.count(), 6u);
  EXPECT_DOUBLE_EQ(stats.decode_cpu_seconds, decode_hist.sum());
  EXPECT_EQ(registry.histogram("pipeline.stage.ops_seconds").count(), 0u);
  // The worker pool's telemetry landed in the same registry.
  EXPECT_GT(registry.counter_value("pipeline.pool.tasks_total"), 0u);
  EXPECT_EQ(registry.gauge("pipeline.pool.queue_depth").value(), 0);
  // Per-batch assembly and prefetch waits were histogrammed.
  EXPECT_EQ(registry.histogram("pipeline.stage.batch_assemble_seconds").count(),
            stats.batches);
  EXPECT_GT(registry.histogram("pipeline.stage.prefetch_wait_seconds").count(),
            0u);
}

TEST(Pipeline, PrivateRegistriesKeepPipelinesApart) {
  const auto gen = cosmo_gen();
  const codec::CosmoCodec codec;
  const auto ds =
      InMemoryDataset::make_cosmo(gen, 4, StorageFormat::kEncoded, &codec);
  PipelineConfig cfg;
  cfg.batch_size = 2;
  DataPipeline a(ds, codec, cfg);
  DataPipeline b(ds, codec, cfg);
  Batch batch;
  while (a.next_batch(batch)) {
  }
  EXPECT_EQ(a.stats().samples, 4u);
  EXPECT_EQ(b.stats().samples, 0u);  // b's private registry saw nothing
}

TEST(Ops, ScaleOpScalesValues) {
  codec::TensorF16 t;
  t.shape = {4};
  t.values = {Half(1.0F), Half(2.0F), Half(-3.0F), Half(0.0F)};
  Rng rng(1);
  ScaleOp(2.0F).apply(t, rng);
  EXPECT_EQ(t.values[0].to_float(), 2.0F);
  EXPECT_EQ(t.values[2].to_float(), -6.0F);
}

TEST(Ops, FlipYReversesRows) {
  codec::TensorF16 t;
  t.shape = {1, 2, 3};
  t.values.resize(6);
  for (int i = 0; i < 6; ++i) {
    t.values[static_cast<std::size_t>(i)] = Half(static_cast<float>(i));
  }
  t.byte_labels = {0, 1, 2, 3, 4, 5};
  Rng rng(1);
  RandomFlipY(1.0).apply(t, rng);
  EXPECT_EQ(t.values[0].to_float(), 3.0F);
  EXPECT_EQ(t.values[3].to_float(), 0.0F);
  EXPECT_EQ(t.byte_labels, (std::vector<std::uint8_t>{3, 4, 5, 0, 1, 2}));
}

TEST(Ops, FlipXMatchesReverse) {
  // The word-at-a-time reversal against std::reverse, bit for bit, at every
  // width around its 4-value / 8-byte words and at DeepCAM's 1152.
  std::vector<std::uint64_t> widths;
  for (std::uint64_t w = 1; w <= 17; ++w) widths.push_back(w);
  widths.push_back(1152);
  for (const std::uint64_t w : widths) {
    constexpr std::uint64_t c = 2;
    constexpr std::uint64_t h = 3;
    codec::TensorF16 t;
    t.shape = {c, h, w};
    t.values.resize(c * h * w);
    for (std::size_t i = 0; i < t.values.size(); ++i) {
      t.values[i] = Half::from_bits(static_cast<std::uint16_t>(i * 40503u));
    }
    t.byte_labels.resize(h * w);
    for (std::size_t i = 0; i < t.byte_labels.size(); ++i) {
      t.byte_labels[i] = static_cast<std::uint8_t>(i * 37u + 11u);
    }
    codec::TensorF16 want = t;
    for (std::uint64_t row = 0; row < c * h; ++row) {
      Half* begin = want.values.data() + row * w;
      std::reverse(begin, begin + w);
    }
    for (std::uint64_t row = 0; row < h; ++row) {
      std::uint8_t* begin = want.byte_labels.data() + row * w;
      std::reverse(begin, begin + w);
    }
    Rng rng(1);
    RandomFlipX(1.0).apply(t, rng);
    ASSERT_EQ(t.values.size(), want.values.size());
    EXPECT_EQ(std::memcmp(t.values.data(), want.values.data(),
                          t.values.size() * sizeof(Half)),
              0)
        << "width " << w;
    EXPECT_EQ(t.byte_labels, want.byte_labels) << "width " << w;
  }
}

TEST(Ops, FlipRejectsNonImageTensors) {
  codec::TensorF16 t;
  t.shape = {8};
  t.values.resize(8);
  Rng rng(1);
  EXPECT_THROW(RandomFlipX(1.0).apply(t, rng), ConfigError);
  EXPECT_THROW(RandomFlipX(1.5), ConfigError);
}

}  // namespace
}  // namespace sciprep::pipeline
