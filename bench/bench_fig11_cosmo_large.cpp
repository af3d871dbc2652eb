// Figure 11 reproduction — CosmoFlow node throughput for the large dataset
// (2048 samples/GPU) that does not fit in host memory uncompressed.
//
// Paper shape: staging improves the baseline up to ~1.5x on Cori (NVMe vs
// PFS streaming), within 10% on Summit; the plugin reaches up to an order of
// magnitude speedup — its encoded dataset still fits in DRAM.
#include <cstdio>

#include "bench_shard_axis.hpp"
#include "bench_util.hpp"
#include "sciprep/apps/measure.hpp"
#include "sciprep/codec/cosmo_codec.hpp"
#include "sciprep/data/cosmo_gen.hpp"
#include "sciprep/sim/memhier.hpp"

int main(int argc, char** argv) {
  using namespace sciprep;
  using apps::LoaderConfig;
  const auto args = benchutil::parse_bench_args(argc, argv);
  const int dim = args.pos_int(0, 128);
  apps::BenchReporter reporter("fig11_cosmo_large");
  reporter.set_config(fmt("dim={}", dim));

  benchutil::print_header(
      fmt("Figure 11 — CosmoFlow throughput, large set (2048 samples/GPU), "
          "dim={}", dim));
  std::printf("measuring codec paths on this host...\n\n");
  const auto base = apps::measure_cosmo(LoaderConfig::kBaseline, dim);
  const auto gz = apps::measure_cosmo(LoaderConfig::kGzip, dim);
  const auto plug = apps::measure_cosmo(LoaderConfig::kGpuPlugin, dim);

  std::printf("%-10s %-9s %-6s | %-10s %-10s %-10s | %-10s | %-9s %-9s\n",
              "platform", "staging", "batch", "base", "gzip", "plugin",
              "plug-spdup", "base@",
              "plug@");
  for (const auto& platform : sim::all_platforms()) {
    const std::uint64_t samples_per_node =
        2048ull * static_cast<std::uint64_t>(platform.gpus_per_node);
    for (const bool staged : {true, false}) {
      for (const int batch : {1, 4}) {
        const auto scenario = benchutil::make_scenario(
            platform, samples_per_node, staged, batch, /*deepcam=*/false);
        const auto b_base = sim::model_step(scenario, base.profile);
        const auto b_gz = sim::model_step(scenario, gz.profile);
        const auto b_plug = sim::model_step(scenario, plug.profile);
        std::printf(
            "%-10s %-9s %-6d | %-10.1f %-10.1f %-10.1f | %-10.2f | %-9s "
            "%-9s\n",
            platform.name.c_str(), staged ? "staged" : "unstaged", batch,
            sim::node_samples_per_second(scenario, b_base),
            sim::node_samples_per_second(scenario, b_gz),
            sim::node_samples_per_second(scenario, b_plug),
            sim::node_samples_per_second(scenario, b_plug) /
                sim::node_samples_per_second(scenario, b_base),
            sim::residency_name(b_base.residency),
            sim::residency_name(b_plug.residency));
      }
    }
    std::printf("\n");
  }
  std::printf(
      "('base@'/'plug@' show where each dataset resides in steady state —\n"
      "the encoded dataset fitting a faster level is the core mechanism.)\n");

  const std::uint64_t headline_samples =
      2048ull * static_cast<std::uint64_t>(sim::cori_v100().gpus_per_node);
  const auto headline = benchutil::make_scenario(
      sim::cori_v100(), headline_samples, /*staged=*/true, 1,
      /*deepcam=*/false);
  const double h_base = sim::node_samples_per_second(
      headline, sim::model_step(headline, base.profile));
  const double h_plug = sim::node_samples_per_second(
      headline, sim::model_step(headline, plug.profile));
  reporter.add_metric("samples_per_s.cori_v100.baseline", h_base, "samples/s",
                      "modeled");
  reporter.add_metric("samples_per_s.cori_v100.plugin", h_plug, "samples/s",
                      "modeled");
  reporter.add_metric("speedup.cori_v100.plugin_vs_base", h_plug / h_base,
                      "x", "modeled");
  const double headline_n = static_cast<double>(headline_samples);
  reporter.charge_sim_seconds(headline_n / h_base + headline_n / h_plug);

  // Rank-count axis, unstaged: the large set cannot be replicated per node,
  // so every rank reads the one shared store — the digest must still be
  // bit-identical at 1/2/4/8 ranks.
  {
    data::CosmoGenConfig gcfg;
    gcfg.dim = 16;
    gcfg.seed = 3;
    const data::CosmoGenerator gen(gcfg);
    const codec::CosmoCodec codec;
    const auto dataset = pipeline::InMemoryDataset::make_cosmo(
        gen, 64, pipeline::StorageFormat::kEncoded, &codec);
    benchutil::report_shard_rank_axis(reporter, dataset, codec, /*epochs=*/2,
                                      /*batch=*/4, /*staged=*/false);
  }
  benchutil::finish(args, reporter);
  return 0;
}
