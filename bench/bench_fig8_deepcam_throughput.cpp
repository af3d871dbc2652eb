// Figure 8 reproduction — DeepCAM node throughput (samples/s) on Summit,
// Cori-V100, Cori-A100 for small (1536/node) and large (12288/node) datasets,
// staged vs unstaged, batch sizes 2/4/8, comparing the baseline with the CPU
// and GPU decoder plugins.
//
// Paper shape to reproduce: plugins beat baseline on Cori (up to ~2.5x CPU,
// ~3x GPU, best on A100); baseline does not improve from V100 to A100 (PCIe
// bound); Summit's gain is limited (~1.3x, NVLink baseline + slower stack);
// the large dataset slows the baseline 1.2-2.4x; GPU plugin beats CPU plugin.
#include <cstdio>

#include "bench_shard_axis.hpp"
#include "bench_util.hpp"
#include "sciprep/apps/measure.hpp"
#include "sciprep/codec/cam_codec.hpp"
#include "sciprep/data/cam_gen.hpp"

int main(int argc, char** argv) {
  using namespace sciprep;
  using apps::LoaderConfig;
  const auto args = benchutil::parse_bench_args(argc, argv);
  const int height = args.pos_int(0, 768);
  const int width = args.pos_int(1, 1152);
  apps::BenchReporter reporter("fig8_deepcam_throughput");
  reporter.set_config(fmt("height={} width={}", height, width));

  benchutil::print_header(
      fmt("Figure 8 — DeepCAM throughput (samples/s per node), measured "
          "profiles at {}x{}x16", height, width));
  std::printf("measuring codec paths on this host...\n");
  const auto base = apps::measure_cam(LoaderConfig::kBaseline, height, width);
  const auto cpu = apps::measure_cam(LoaderConfig::kCpuPlugin, height, width);
  const auto gpu = apps::measure_cam(LoaderConfig::kGpuPlugin, height, width);
  std::printf("compression ratio: %.2fx; host decode %.1f ms (cpu plugin), "
              "baseline preprocess %.1f ms\n\n",
              cpu.compression_ratio, cpu.profile.host_seconds * 1e3,
              base.profile.host_seconds * 1e3);

  std::printf("%-10s %-7s %-9s %-6s | %-10s %-10s %-10s | %-9s %-9s\n",
              "platform", "dataset", "staging", "batch", "base", "cpu-plugin",
              "gpu-plugin", "cpu-spdup", "gpu-spdup");
  for (const auto& platform : sim::all_platforms()) {
    for (const std::uint64_t samples_per_node : {1536ull, 12288ull}) {
      for (const bool staged : {true, false}) {
        for (const int batch : {2, 4, 8}) {
          const auto scenario = benchutil::make_scenario(
              platform, samples_per_node, staged, batch, /*deepcam=*/true);
          const double t_base = sim::node_samples_per_second(
              scenario, sim::model_step(scenario, base.profile));
          const double t_cpu = sim::node_samples_per_second(
              scenario, sim::model_step(scenario, cpu.profile));
          const double t_gpu = sim::node_samples_per_second(
              scenario, sim::model_step(scenario, gpu.profile));
          std::printf(
              "%-10s %-7llu %-9s %-6d | %-10.1f %-10.1f %-10.1f | %-9.2f "
              "%-9.2f\n",
              platform.name.c_str(),
              static_cast<unsigned long long>(samples_per_node),
              staged ? "staged" : "unstaged", batch, t_base, t_cpu, t_gpu,
              t_cpu / t_base, t_gpu / t_base);
        }
      }
    }
    std::printf("\n");
  }

  // Headline checks against the paper.
  const auto v100_small = benchutil::make_scenario(sim::cori_v100(), 1536,
                                                   true, 4, true);
  const auto a100_small = benchutil::make_scenario(sim::cori_a100(), 1536,
                                                   true, 4, true);
  const double base_v = sim::node_samples_per_second(
      v100_small, sim::model_step(v100_small, base.profile));
  const double base_a = sim::node_samples_per_second(
      a100_small, sim::model_step(a100_small, base.profile));
  const double gpu_a = sim::node_samples_per_second(
      a100_small, sim::model_step(a100_small, gpu.profile));
  std::printf("paper: baseline A100 ~ baseline V100 (PCIe bound) -> measured "
              "ratio %.2f\n",
              base_a / base_v);
  std::printf("paper: GPU plugin up to ~3.1x on Cori-A100 -> measured %.2fx\n",
              gpu_a / base_a);

  reporter.add_metric("decode_seconds.cpu_plugin", cpu.profile.host_seconds,
                      "seconds", "measured", /*better_higher=*/false);
  reporter.add_metric("preprocess_seconds.baseline",
                      base.profile.host_seconds, "seconds", "measured",
                      /*better_higher=*/false);
  reporter.add_metric("samples_per_s.cori_v100.baseline", base_v, "samples/s",
                      "modeled");
  reporter.add_metric("samples_per_s.cori_a100.gpu_plugin", gpu_a,
                      "samples/s", "modeled");
  reporter.add_metric("speedup.cori_a100.gpu_vs_base", gpu_a / base_a, "x",
                      "modeled");
  // §5 contract: the modeled headline step times are sim-charged, the codec
  // measurement above is wall.
  reporter.charge_sim_seconds(1536.0 / base_v + 1536.0 / gpu_a);

  // Rank-count axis: the same DeepCAM-shaped workload (reduced frames) run
  // through the in-process ShardCoordinator at 1/2/4/8 ranks — digest must
  // stay bit-identical, throughput flat (sharding overhead < 1% per rank).
  {
    data::CamGenConfig gcfg;
    gcfg.height = 16;
    gcfg.width = 24;
    gcfg.channels = 4;
    gcfg.seed = 11;
    const data::CamGenerator gen(gcfg);
    const codec::CamCodec codec;
    const auto dataset = pipeline::InMemoryDataset::make_cam(
        gen, 48, pipeline::StorageFormat::kEncoded, &codec);
    benchutil::report_shard_rank_axis(reporter, dataset, codec);
  }
  benchutil::finish(args, reporter);
  return 0;
}
