// Figure 6 reproduction — DeepCAM training-loss trajectory with base (FP32)
// vs decoded (lossy FP16) samples under an identical learning schedule.
// Paper result: "identical convergence behavior".
//
// Run at miniature scale (the substrate trains a DeepCAM-style FCN on
// synthetic climate samples); batch 2 as in the paper's single-GPU setup.
#include <cstdio>

#include "bench_util.hpp"
#include "sciprep/apps/models.hpp"
#include "sciprep/apps/trainer.hpp"
#include "sciprep/codec/cam_codec.hpp"
#include "sciprep/data/cam_gen.hpp"

int main(int argc, char** argv) {
  using namespace sciprep;
  const auto args = benchutil::parse_bench_args(argc, argv);
  const int nsamples = args.pos_int(0, 24);
  const int epochs = args.pos_int(1, 6);
  apps::BenchReporter reporter("fig6_deepcam_convergence");
  reporter.set_config(fmt("nsamples={} epochs={}", nsamples, epochs));

  data::CamGenConfig cfg;
  cfg.height = 48;
  cfg.width = 64;
  cfg.channels = 8;
  cfg.seed = 66;
  cfg.cyclone_rate = 3.0;
  const data::CamGenerator gen(cfg);
  const codec::CamCodec codec;

  auto build = [&](bool decoded) {
    std::vector<apps::Example> examples;
    for (int i = 0; i < nsamples; ++i) {
      const auto sample = gen.generate(static_cast<std::uint64_t>(i));
      apps::Example ex;
      if (decoded) {
        ex.input = apps::input_from_fp16(
            codec.decode_sample_cpu(codec.encode_sample(sample)));
      } else {
        ex.input = apps::cam_input_fp32(sample);
      }
      ex.pixel_labels = sample.labels;
      examples.push_back(std::move(ex));
    }
    return examples;
  };

  apps::TrainConfig tc;
  tc.batch_size = 2;  // paper: "two samples processed per step"
  tc.epochs = epochs;
  tc.seed = 7;
  tc.sgd = {.learning_rate = 0.05F, .momentum = 0.9F, .weight_decay = 0.0F,
            .warmup_steps = 8, .decay_every = 0};
  tc.class_weights = {0.2F, 2.0F, 2.0F};

  benchutil::print_header(
      fmt("Figure 6 — DeepCAM loss: base (FP32) vs decoded (FP16), "
          "{} samples x {} epochs, batch 2",
          nsamples, epochs));

  auto base_examples = build(false);
  Rng rng_a(1234);
  auto model_a = apps::build_deepcam_model(cfg.channels, rng_a);
  const auto base = apps::train(*model_a, base_examples, tc);

  auto dec_examples = build(true);
  Rng rng_b(1234);  // identical initialization
  auto model_b = apps::build_deepcam_model(cfg.channels, rng_b);
  const auto dec = apps::train(*model_b, dec_examples, tc);

  std::printf("%-8s %-14s %-14s %-10s\n", "step", "loss(base)", "loss(decoded)",
              "rel.diff");
  for (std::size_t s = 0; s < base.step_losses.size(); ++s) {
    const double rel =
        std::abs(dec.step_losses[s] - base.step_losses[s]) /
        std::max(1e-9, std::abs(base.step_losses[s]));
    std::printf("%-8zu %-14.5f %-14.5f %-10.4f\n", s, base.step_losses[s],
                dec.step_losses[s], rel);
  }
  std::printf("\nepoch means:\n%-8s %-14s %-14s\n", "epoch", "base", "decoded");
  for (std::size_t e = 0; e < base.epoch_losses.size(); ++e) {
    std::printf("%-8zu %-14.5f %-14.5f\n", e, base.epoch_losses[e],
                dec.epoch_losses[e]);
  }
  const double final_gap =
      std::abs(dec.epoch_losses.back() - base.epoch_losses.back()) /
      std::max(1e-9, base.epoch_losses.back());
  std::printf(
      "\npaper: identical convergence; measured final-epoch gap %.1f%%\n",
      100.0 * final_gap);
  reporter.add_metric("final_epoch_loss.base", base.epoch_losses.back(),
                      "loss", "measured", /*better_higher=*/false);
  reporter.add_metric("final_epoch_gap", final_gap, "fraction", "measured",
                      /*better_higher=*/false);
  benchutil::finish(args, reporter);
  return 0;
}
