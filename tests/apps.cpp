// Tests for the workload apps: model construction, trainer behaviour,
// FP32-vs-FP16 input arms, measurement harness, the step-time model's
// reproduction of the paper's qualitative effects, and the bench records.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "sciprep/apps/benchreport.hpp"
#include "sciprep/apps/digest_file.hpp"
#include "sciprep/apps/measure.hpp"
#include "sciprep/apps/models.hpp"
#include "sciprep/apps/trainer.hpp"
#include "sciprep/codec/cam_codec.hpp"
#include "sciprep/codec/cosmo_codec.hpp"
#include "sciprep/common/error.hpp"
#include "sciprep/common/sysio.hpp"
#include "sciprep/data/cam_gen.hpp"
#include "sciprep/data/cosmo_gen.hpp"
#include "sciprep/obs/json.hpp"
#include "sciprep/sim/stepmodel.hpp"

namespace sciprep::apps {
namespace {

TEST(Models, CosmoflowShapes) {
  Rng rng(1);
  auto model = build_cosmoflow_model(16, rng);
  dnn::Tensor input({4, 16, 16, 16});
  const dnn::Tensor out = model->forward(input);
  EXPECT_EQ(out.size(), 4u);
  EXPECT_THROW(build_cosmoflow_model(10, rng), ConfigError);
}

TEST(Models, DeepcamShapes) {
  Rng rng(2);
  auto model = build_deepcam_model(4, rng);
  dnn::Tensor input({4, 8, 12});
  const dnn::Tensor out = model->forward(input);
  EXPECT_EQ(out.shape, (std::vector<std::uint64_t>{3, 8, 12}));
}

TEST(Models, Fp32AndFp16ArmsAreClose) {
  data::CosmoGenConfig cfg;
  cfg.dim = 16;
  cfg.seed = 5;
  const auto sample = data::CosmoGenerator(cfg).generate(0);
  const dnn::Tensor fp32 = cosmo_input_fp32(sample);
  const codec::CosmoCodec codec;
  const dnn::Tensor fp16 = cosmo_input_from_fp16(
      codec.decode_cpu(codec.encode_sample(sample)));
  ASSERT_EQ(fp32.size(), fp16.size());
  for (std::size_t i = 0; i < fp32.size(); ++i) {
    // FP16 quantization of log1p(count) in [0, ~10]: absolute gap < 0.005.
    ASSERT_NEAR(fp32[i], fp16[i], 0.005F) << "value " << i;
  }
}

TEST(Models, CamFp32ArmIsNormalized) {
  data::CamGenConfig cfg;
  cfg.height = 32;
  cfg.width = 48;
  cfg.channels = 4;
  cfg.seed = 6;
  const auto sample = data::CamGenerator(cfg).generate(0);
  const dnn::Tensor input = cam_input_fp32(sample);
  // Per-channel mean ~0, std ~1.
  const std::size_t plane = sample.pixel_count();
  for (int c = 0; c < 4; ++c) {
    double sum = 0;
    double sq = 0;
    for (std::size_t i = 0; i < plane; ++i) {
      const double v = input[static_cast<std::size_t>(c) * plane + i];
      sum += v;
      sq += v * v;
    }
    EXPECT_NEAR(sum / plane, 0.0, 1e-3);
    EXPECT_NEAR(std::sqrt(sq / plane), 1.0, 1e-2);
  }
}

TEST(Trainer, CosmoMiniatureLossDecreases) {
  data::CosmoGenConfig cfg;
  cfg.dim = 16;
  cfg.seed = 7;
  const data::CosmoGenerator gen(cfg);
  std::vector<Example> examples;
  for (std::uint64_t i = 0; i < 8; ++i) {
    const auto sample = gen.generate(i);
    Example ex;
    ex.input = cosmo_input_fp32(sample);
    ex.regression_target.assign(sample.params.begin(), sample.params.end());
    examples.push_back(std::move(ex));
  }
  Rng rng(8);
  auto model = build_cosmoflow_model(16, rng);
  TrainConfig tc;
  tc.batch_size = 2;
  tc.epochs = 6;
  tc.sgd = {.learning_rate = 0.01F, .momentum = 0.9F};
  const TrainResult result = train(*model, examples, tc);
  ASSERT_EQ(result.epoch_losses.size(), 6u);
  EXPECT_LT(result.epoch_losses.back(), result.epoch_losses.front());
}

TEST(Trainer, Fp16AndFp32ConvergenceMatch) {
  // The Fig 6/7 claim in miniature: decoded FP16 inputs must track the FP32
  // baseline loss curve closely under an identical schedule and seed.
  data::CosmoGenConfig cfg;
  cfg.dim = 16;
  cfg.seed = 9;
  const data::CosmoGenerator gen(cfg);
  const codec::CosmoCodec codec;

  auto build_examples = [&](bool fp16) {
    std::vector<Example> examples;
    for (std::uint64_t i = 0; i < 6; ++i) {
      const auto sample = gen.generate(i);
      Example ex;
      ex.input = fp16 ? cosmo_input_from_fp16(codec.decode_cpu(
                            codec.encode_sample(sample)))
                      : cosmo_input_fp32(sample);
      ex.regression_target.assign(sample.params.begin(), sample.params.end());
      examples.push_back(std::move(ex));
    }
    return examples;
  };

  TrainConfig tc;
  tc.batch_size = 2;
  tc.epochs = 4;
  tc.seed = 3;
  tc.sgd = {.learning_rate = 0.01F, .momentum = 0.9F};

  auto fp32_examples = build_examples(false);
  Rng rng_a(10);
  auto model_a = build_cosmoflow_model(16, rng_a);
  const TrainResult base = train(*model_a, fp32_examples, tc);

  auto fp16_examples = build_examples(true);
  Rng rng_b(10);  // identical init
  auto model_b = build_cosmoflow_model(16, rng_b);
  const TrainResult decoded = train(*model_b, fp16_examples, tc);

  // Training is chaotic at the step level (tiny input perturbations grow),
  // so compare the *trajectory* the way the paper's figures do: per-epoch
  // mean losses must track closely, and both arms must descend.
  ASSERT_EQ(base.epoch_losses.size(), decoded.epoch_losses.size());
  for (std::size_t e = 0; e < base.epoch_losses.size(); ++e) {
    // Tolerance: 25% relative plus an absolute floor of ~1% of the initial
    // loss — late epochs sit deep in the noise floor of SGD.
    EXPECT_NEAR(decoded.epoch_losses[e], base.epoch_losses[e],
                0.25 * std::abs(base.epoch_losses[e]) +
                    0.01 * std::abs(base.epoch_losses.front()))
        << "epoch " << e;
  }
  EXPECT_LT(base.epoch_losses.back(), base.epoch_losses.front());
  EXPECT_LT(decoded.epoch_losses.back(), decoded.epoch_losses.front());
  // The very first steps see (almost) identical inputs and identical
  // weights, so they must agree tightly before chaos sets in.
  EXPECT_NEAR(decoded.step_losses.front(), base.step_losses.front(),
              0.02 * std::abs(base.step_losses.front()) + 1e-4);
}

TEST(Trainer, DeepcamSegmentationLearns) {
  data::CamGenConfig cfg;
  cfg.height = 24;
  cfg.width = 32;
  cfg.channels = 4;
  cfg.seed = 11;
  cfg.cyclone_rate = 4.0;  // make sure labels appear at this tiny size
  const data::CamGenerator gen(cfg);
  std::vector<Example> examples;
  for (std::uint64_t i = 0; i < 6; ++i) {
    const auto sample = gen.generate(i);
    Example ex;
    ex.input = cam_input_fp32(sample);
    ex.pixel_labels = sample.labels;
    examples.push_back(std::move(ex));
  }
  Rng rng(12);
  auto model = build_deepcam_model(4, rng);
  TrainConfig tc;
  tc.batch_size = 2;
  tc.epochs = 5;
  tc.sgd = {.learning_rate = 0.05F, .momentum = 0.9F};
  tc.class_weights = {0.2F, 2.0F, 2.0F};
  const TrainResult result = train(*model, examples, tc);
  EXPECT_LT(result.epoch_losses.back(), result.epoch_losses.front());
}

TEST(Measure, CosmoProfilesHaveExpectedStructure) {
  const auto base = measure_cosmo(LoaderConfig::kBaseline, 32, 1, 500);
  const auto gz = measure_cosmo(LoaderConfig::kGzip, 32, 1, 500);
  const auto cpu = measure_cosmo(LoaderConfig::kCpuPlugin, 32, 1, 500);
  const auto gpu = measure_cosmo(LoaderConfig::kGpuPlugin, 32, 1, 500);

  // Storage: gzip and codec both shrink the raw bytes.
  EXPECT_LT(gz.profile.bytes_at_rest, base.profile.bytes_at_rest);
  EXPECT_LT(cpu.profile.bytes_at_rest, base.profile.bytes_at_rest);
  EXPECT_GT(cpu.compression_ratio, 2.0);

  // Transfer payloads: fp32 > fp16 > encoded.
  EXPECT_EQ(base.profile.bytes_to_device, cpu.profile.bytes_to_device * 2);
  EXPECT_LT(gpu.profile.bytes_to_device, cpu.profile.bytes_to_device);

  // Host work: gunzip costs more than the raw baseline; the plugin's CPU
  // decode is cheaper than baseline preprocessing; the GPU plugin leaves the
  // host nearly idle.
  EXPECT_GT(gz.profile.host_seconds, base.profile.host_seconds);
  EXPECT_LT(cpu.profile.host_seconds, base.profile.host_seconds);
  EXPECT_LT(gpu.profile.host_seconds, cpu.profile.host_seconds);
  EXPECT_GT(gpu.profile.gpu_decode_host_seconds, 0.0);
}

TEST(Measure, CamProfilesHaveExpectedStructure) {
  const auto base = measure_cam(LoaderConfig::kBaseline, 96, 144, 16, 1, 501);
  const auto cpu = measure_cam(LoaderConfig::kCpuPlugin, 96, 144, 16, 1, 501);
  const auto gpu = measure_cam(LoaderConfig::kGpuPlugin, 96, 144, 16, 1, 501);
  EXPECT_GT(cpu.compression_ratio, 2.0);
  EXPECT_EQ(base.profile.bytes_to_device, cpu.profile.bytes_to_device * 2);
  EXPECT_LT(gpu.profile.bytes_to_device, cpu.profile.bytes_to_device);
  EXPECT_GT(gpu.profile.gpu_decode_host_seconds, 0.0);
  EXPECT_THROW(measure_cam(LoaderConfig::kGzip, 96, 144, 16, 1, 1), ConfigError);
}

// The paper's qualitative results must fall out of the step model when fed
// measured profiles.
TEST(StepModel, PluginBeatsBaselineAndBaselineIsPcieBound) {
  const auto base = measure_cam(LoaderConfig::kBaseline, 96, 144, 16, 1, 502);
  const auto gpu = measure_cam(LoaderConfig::kGpuPlugin, 96, 144, 16, 1, 502);

  // Scale byte counts to full-size DeepCAM samples so residency decisions
  // match the paper's dataset sizes.
  auto full = [](sim::WorkloadProfile p, double scale) {
    p.bytes_at_rest = static_cast<std::uint64_t>(p.bytes_at_rest * scale);
    p.bytes_to_device = static_cast<std::uint64_t>(p.bytes_to_device * scale);
    p.host_seconds *= scale;
    p.gpu_decode_host_seconds *= scale;
    p.model_train_flops *= scale;
    return p;
  };
  const double scale = (1152.0 * 768 * 16) / (96.0 * 144 * 16);

  sim::StepScenario scenario;
  scenario.platform = sim::cori_a100();
  scenario.samples_per_node = 1536;
  scenario.staged = true;
  scenario.batch_size = 4;

  const auto base_step = sim::model_step(scenario, full(base.profile, scale));
  const auto gpu_step = sim::model_step(scenario, full(gpu.profile, scale));
  const double base_tput = sim::node_samples_per_second(scenario, base_step);
  const double gpu_tput = sim::node_samples_per_second(scenario, gpu_step);
  EXPECT_GT(gpu_tput, base_tput) << "plugin must beat baseline";

  // Baseline V100 vs A100: PCIe-bound, so close throughput (§IX.A).
  sim::StepScenario v100 = scenario;
  v100.platform = sim::cori_v100();
  const auto base_v100 = sim::model_step(v100, full(base.profile, scale));
  const double tput_v100 = sim::node_samples_per_second(v100, base_v100);
  EXPECT_LT(base_tput / tput_v100, 1.6)
      << "baseline must not benefit much from the A100";
}

TEST(StepModel, LargeDatasetUnstagedIsPfsBound) {
  sim::WorkloadProfile p;
  p.bytes_at_rest = 57ull * 1024 * 1024;
  p.bytes_to_device = p.bytes_at_rest;
  p.host_seconds = 1e-3;
  p.model_train_flops = 1e12;

  sim::StepScenario scenario;
  scenario.platform = sim::cori_v100();
  scenario.samples_per_node = 12288;
  scenario.batch_size = 4;
  scenario.staged = false;
  const auto unstaged = sim::model_step(scenario, p);
  EXPECT_EQ(unstaged.residency, sim::Residency::kPfs);
  scenario.staged = true;
  const auto staged = sim::model_step(scenario, p);
  EXPECT_EQ(staged.residency, sim::Residency::kNvme);
  EXPECT_LT(staged.step_seconds(), unstaged.step_seconds());
}

TEST(StepModel, BreakdownComponentsAreConsistent) {
  sim::WorkloadProfile p;
  p.bytes_at_rest = 4 * 1024 * 1024;
  p.bytes_to_device = 8 * 1024 * 1024;
  p.host_seconds = 2e-3;
  p.gpu_decode_host_seconds = 1e-3;
  p.model_train_flops = 2e11;

  sim::StepScenario scenario;
  scenario.platform = sim::summit();
  scenario.samples_per_node = 128 * 6;
  scenario.batch_size = 2;
  const auto b = sim::model_step(scenario, p);
  EXPECT_GT(b.io_read, 0);
  EXPECT_GT(b.host_work, 0);
  EXPECT_GT(b.h2d, 0);
  EXPECT_GT(b.gpu_decode, 0);
  EXPECT_GT(b.gpu_compute, 0);
  EXPECT_GT(b.allreduce, 0);
  EXPECT_GE(b.step_seconds(), b.device_stage() - 1e-12);
  EXPECT_GE(b.step_seconds(), b.host_work);
  EXPECT_GE(b.step_seconds(), b.io_read);
  EXPECT_GT(sim::node_samples_per_second(scenario, b), 0);
}

// ----------------------------------------------------------- bench record --

TEST(BenchReport, EmitsValidSchemaTaggedJson) {
  BenchReporter reporter("unit_bench");
  reporter.set_config("dim=16 repeat=2");
  reporter.add_metric("samples_per_s", 1234.5, "samples/s", "modeled");
  reporter.add_metric("decode_seconds", 0.25, "seconds", "measured",
                      /*better_higher=*/false);
  reporter.charge_sim_seconds(3.5);
  const std::string json = reporter.to_json();
  EXPECT_TRUE(obs::json_valid(json)) << json;
  EXPECT_NE(json.find("\"schema\":\"sciprep.perf.bench.v2\""),
            std::string::npos);
  EXPECT_NE(json.find("\"host\":"), std::string::npos);
}

TEST(BenchReport, WallAndSimSecondsStaySeparate) {
  BenchReporter reporter("timing");
  reporter.charge_sim_seconds(100.0);  // modeled time, not harness time
  const BenchRecord record = reporter.snapshot();
  EXPECT_DOUBLE_EQ(record.sim_charged_seconds, 100.0);
  EXPECT_LT(record.wall_seconds, 10.0);  // the snapshot itself is instant
  EXPECT_GE(record.wall_seconds, 0.0);
}

// ------------------------------------------------------------ digest file --

/// A two-epoch, three-batch run's digest, as the trainer writes it.
DigestFile reference_digest() {
  DigestFile file;
  file.add("B", 0, 0, 0x0744a61fu);
  file.add("B", 0, 1, 0xc53caf1fu);
  file.add("B", 1, 0, 0x7a5a2482u);
  file.footer = "T samples 12 batches 3";
  return file;
}

TEST(DigestFile, IdenticalRunsAgree) {
  EXPECT_TRUE(reference_digest().check(reference_digest(), false).empty());
}

TEST(DigestFile, ChangedCrcFails) {
  DigestFile produced = reference_digest();
  produced.lines[1] = "B 0 1 c53caf1e";
  const auto failures = produced.check(reference_digest(), false);
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_NE(failures[0].find("B 0 1 c53caf1e"), std::string::npos);
  // Resuming does not excuse a changed line.
  EXPECT_EQ(produced.check(reference_digest(), true).size(), 1u);
}

TEST(DigestFile, MissingOrExtraKeyFailsOnAFreshRun) {
  DigestFile missing = reference_digest();
  missing.lines.erase(missing.lines.begin() + 1);
  EXPECT_EQ(missing.check(reference_digest(), false).size(), 1u);

  DigestFile extra = reference_digest();
  extra.add("B", 1, 1, 0x12345678u);
  const auto failures = extra.check(reference_digest(), false);
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_NE(failures[0].find("B 1 1"), std::string::npos);
  // An extra key is never a suffix.
  EXPECT_EQ(extra.check(reference_digest(), true).size(), 1u);
}

TEST(DigestFile, SuffixPassesOnlyWhenResumed) {
  DigestFile suffix = reference_digest();
  suffix.lines.erase(suffix.lines.begin(), suffix.lines.begin() + 2);
  EXPECT_TRUE(suffix.check(reference_digest(), true).empty());
  EXPECT_FALSE(suffix.check(reference_digest(), false).empty());
}

TEST(DigestFile, ChangedFooterFails) {
  DigestFile produced = reference_digest();
  produced.footer = "T samples 11 batches 3";
  EXPECT_EQ(produced.check(reference_digest(), false).size(), 1u);
  EXPECT_EQ(produced.check(reference_digest(), true).size(), 1u);
}

TEST(DigestFile, WriteReadRoundTripsTheExactBytes) {
  const std::string path = ::testing::TempDir() + "digest_file_roundtrip";
  reference_digest().write(path);
  const Bytes bytes = sysio::read_file(path);
  EXPECT_EQ(std::string(bytes.begin(), bytes.end()),
            "B 0 0 0744a61f\nB 0 1 c53caf1f\nB 1 0 7a5a2482\n"
            "T samples 12 batches 3\n");
  const DigestFile read = DigestFile::read(path);
  EXPECT_EQ(read.lines, reference_digest().lines);
  EXPECT_EQ(read.footer, reference_digest().footer);
  EXPECT_THROW(DigestFile::read(path + ".missing"), IoError);
}

TEST(DigestFile, StreamLinesFollowEpochThenPosition) {
  shard::GlobalStreamDigest stream;
  stream.record(1, 0, 0xau);
  stream.record(0, 5, 0xbu);
  stream.record(0, 2, 0xcu);
  stream.record(2, 0, 0xdu);  // beyond the run's epochs: not listed
  DigestFile file;
  file.add_stream("S", stream, 2);
  EXPECT_EQ(file.lines, (std::vector<std::string>{
                            "S 0 2 0000000c", "S 0 5 0000000b",
                            "S 1 0 0000000a"}));
}

}  // namespace
}  // namespace sciprep::apps
