// Figure 10 reproduction — CosmoFlow node throughput for the small dataset
// (128 samples/GPU), batch sizes 1-8, comparing the uncompressed TFRecord
// baseline, the gzip-compressed TFRecord baseline, and the decoder plugin
// (GPU placement — the paper omits the slower CPU variant for CosmoFlow).
//
// Paper shape: plugin gives 5-8x on Summit, 3-4x on Cori; gzip REDUCES
// throughput by up to 1.5x; base V100 ~ base A100; base is batch-insensitive.
#include <cstdio>

#include "bench_shard_axis.hpp"
#include "bench_util.hpp"
#include "sciprep/apps/measure.hpp"
#include "sciprep/codec/cosmo_codec.hpp"
#include "sciprep/data/cosmo_gen.hpp"

int main(int argc, char** argv) {
  using namespace sciprep;
  using apps::LoaderConfig;
  const auto args = benchutil::parse_bench_args(argc, argv);
  const int dim = args.pos_int(0, 128);
  apps::BenchReporter reporter("fig10_cosmo_small");
  reporter.set_config(fmt("dim={}", dim));

  benchutil::print_header(
      fmt("Figure 10 — CosmoFlow throughput, small set (128 samples/GPU), "
          "dim={}", dim));
  std::printf("measuring codec paths on this host...\n");
  const auto base = apps::measure_cosmo(LoaderConfig::kBaseline, dim);
  const auto gz = apps::measure_cosmo(LoaderConfig::kGzip, dim);
  const auto plug = apps::measure_cosmo(LoaderConfig::kGpuPlugin, dim);
  std::printf(
      "stored bytes/sample: raw %.1f MiB, gzip %.1f MiB (%.2fx), encoded "
      "%.1f MiB (%.2fx)\n\n",
      base.profile.bytes_at_rest / 1048576.0, gz.profile.bytes_at_rest / 1048576.0,
      gz.compression_ratio, plug.profile.bytes_at_rest / 1048576.0,
      plug.compression_ratio);

  std::printf("%-10s %-9s %-6s | %-10s %-10s %-10s | %-10s %-10s\n",
              "platform", "staging", "batch", "base", "gzip", "plugin",
              "plug-spdup", "gzip-slowdn");
  for (const auto& platform : sim::all_platforms()) {
    const std::uint64_t samples_per_node =
        128ull * static_cast<std::uint64_t>(platform.gpus_per_node);
    for (const bool staged : {true, false}) {
      for (const int batch : {1, 2, 4, 8}) {
        const auto scenario = benchutil::make_scenario(
            platform, samples_per_node, staged, batch, /*deepcam=*/false);
        const double t_base = sim::node_samples_per_second(
            scenario, sim::model_step(scenario, base.profile));
        const double t_gz = sim::node_samples_per_second(
            scenario, sim::model_step(scenario, gz.profile));
        const double t_plug = sim::node_samples_per_second(
            scenario, sim::model_step(scenario, plug.profile));
        std::printf(
            "%-10s %-9s %-6d | %-10.1f %-10.1f %-10.1f | %-10.2f %-10.2f\n",
            platform.name.c_str(), staged ? "staged" : "unstaged", batch,
            t_base, t_gz, t_plug, t_plug / t_base, t_base / t_gz);
      }
    }
    std::printf("\n");
  }

  const auto summit = benchutil::make_scenario(sim::summit(), 128ull * 6, true,
                                               1, false);
  const double s_base = sim::node_samples_per_second(
      summit, sim::model_step(summit, base.profile));
  const double s_plug = sim::node_samples_per_second(
      summit, sim::model_step(summit, plug.profile));
  std::printf("paper: Summit speedup 5-8x (largest at batch 1) -> measured "
              "%.1fx at batch 1\n", s_plug / s_base);

  reporter.add_metric("compression_ratio.plugin", plug.compression_ratio, "x",
                      "measured");
  reporter.add_metric("samples_per_s.summit.baseline", s_base, "samples/s",
                      "modeled");
  reporter.add_metric("samples_per_s.summit.plugin", s_plug, "samples/s",
                      "modeled");
  reporter.add_metric("speedup.summit.plugin_vs_base", s_plug / s_base, "x",
                      "modeled");
  reporter.charge_sim_seconds(128.0 * 6 / s_base + 128.0 * 6 / s_plug);

  // Rank-count axis: the small CosmoFlow set (reduced dim) through the
  // in-process ShardCoordinator at 1/2/4/8 ranks — merged stream digest
  // must be bit-identical at every rank count.
  {
    data::CosmoGenConfig gcfg;
    gcfg.dim = 16;
    gcfg.seed = 3;
    const data::CosmoGenerator gen(gcfg);
    const codec::CosmoCodec codec;
    const auto dataset = pipeline::InMemoryDataset::make_cosmo(
        gen, 64, pipeline::StorageFormat::kEncoded, &codec);
    benchutil::report_shard_rank_axis(reporter, dataset, codec);
  }
  benchutil::finish(args, reporter);
  return 0;
}
