// Shared helpers for the figure/table reproduction benches: one flag parser
// for every bench main (positional knobs + --trace-out/--metrics-out/
// --json-out), aligned table printing, and the standard platform/scenario
// knobs (loader workers and per-batch framework overhead per platform, see
// DESIGN.md §5).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "sciprep/apps/benchreport.hpp"
#include "sciprep/common/format.hpp"
#include "sciprep/obs/obs.hpp"
#include "sciprep/sim/platform.hpp"
#include "sciprep/sim/stepmodel.hpp"

namespace benchutil {

/// The command line every bench main shares. Flags take a value argument;
/// anything that is not a recognised flag stays a positional knob, so the
/// historic `bench_figN <dim> <samples>` invocations are unchanged and
/// `--json-out` lands in exactly one place instead of sixteen.
struct BenchArgs {
  std::vector<std::string> positional;
  std::string trace_out;    // --trace-out FILE: span timeline (Chrome JSON)
  std::string metrics_out;  // --metrics-out FILE: metrics registry dump
  std::string json_out;     // --json-out FILE: sciprep.perf.bench.v2 record

  /// Positional knob `index` as int, or `fallback` when absent.
  [[nodiscard]] int pos_int(std::size_t index, int fallback) const {
    return index < positional.size() ? std::atoi(positional[index].c_str())
                                     : fallback;
  }
};

/// Parse the shared flags and enable the global tracer when a trace was
/// requested. Unknown `--flags` are ignored (forward compatibility); bare
/// words are collected as positional knobs.
inline BenchArgs parse_bench_args(int argc, char** argv) {
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--trace-out" && i + 1 < argc) {
      args.trace_out = argv[++i];
    } else if (a == "--metrics-out" && i + 1 < argc) {
      args.metrics_out = argv[++i];
    } else if (a == "--json-out" && i + 1 < argc) {
      args.json_out = argv[++i];
    } else if (a.rfind("--", 0) == 0) {
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) ++i;
    } else {
      args.positional.push_back(a);
    }
  }
  if (!args.trace_out.empty()) {
    sciprep::obs::Tracer::global().set_enabled(true);
  }
  return args;
}

/// Write whichever outputs were requested — call once at the end of main.
/// The reporter is written only when --json-out was given, so benches build
/// their record unconditionally and stay branch-free.
inline void finish(const BenchArgs& args,
                   const sciprep::apps::BenchReporter& reporter) {
  if (!args.trace_out.empty()) {
    sciprep::obs::Tracer::global().write_chrome_json(args.trace_out);
    std::printf("trace: %zu spans -> %s\n",
                sciprep::obs::Tracer::global().size(), args.trace_out.c_str());
  }
  if (!args.metrics_out.empty()) {
    sciprep::obs::MetricsRegistry::global().write_json(args.metrics_out);
    std::printf("metrics: -> %s\n", args.metrics_out.c_str());
  }
  if (!args.json_out.empty()) {
    reporter.write(args.json_out);
    std::printf("bench record: -> %s\n", args.json_out.c_str());
  }
}

inline void print_header(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

inline void print_row(const std::vector<std::string>& cells,
                      const std::vector<int>& widths) {
  std::string line;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const int w = i < widths.size() ? widths[i] : 12;
    line += sciprep::fmt("{:<1}", "");
    std::string cell = cells[i];
    if (static_cast<int>(cell.size()) < w) {
      cell.append(static_cast<std::size_t>(w) - cell.size(), ' ');
    }
    line += cell + "  ";
  }
  std::printf("%s\n", line.c_str());
}

/// Loader workers feeding each GPU. The PyTorch loader (DeepCAM) scales with
/// the cores available per GPU — Summit has 42 P9 cores per 6 GPUs (7/GPU).
/// The tf.data pipeline (CosmoFlow) is limited by its own intra-op
/// parallelism and effectively uses the default 4 everywhere, which is why
/// Summit's slower cores hurt the CosmoFlow baseline more (§IX.B).
inline int workers_for(const sciprep::sim::PlatformModel& platform,
                       bool deepcam) {
  return (deepcam && platform.name == "Summit") ? 7 : 4;
}

/// Per-batch framework/device overhead. §IX.A observes a much larger
/// per-step software overhead for the PyTorch stack on Summit's ppc64le —
/// applied to the DeepCAM scenarios only.
inline double deepcam_batch_overhead(const sciprep::sim::PlatformModel& platform) {
  return platform.name == "Summit" ? 0.22 : 0.004;
}

/// Build a scenario. DeepCAM dataset sizes are quoted per *node* (1536 /
/// 12288), CosmoFlow per *GPU* (128 / 2048) — pass `samples_per_node`
/// already resolved.
inline sciprep::sim::StepScenario make_scenario(
    const sciprep::sim::PlatformModel& platform,
    std::uint64_t samples_per_node, bool staged, int batch_size,
    bool deepcam) {
  sciprep::sim::StepScenario s;
  s.platform = platform;
  s.samples_per_node = samples_per_node;
  s.staged = staged;
  s.batch_size = batch_size;
  s.cpu_workers_per_gpu = workers_for(platform, deepcam);
  s.device_overhead_per_batch_seconds =
      deepcam ? deepcam_batch_overhead(platform) : 0.004;
  return s;
}

}  // namespace benchutil
