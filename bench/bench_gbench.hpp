// --json-out support for the google-benchmark micro suites.
//
// The plain figure benches build their sciprep.perf.bench.v2 records by hand
// (bench_util.hpp); the gbench binaries instead capture every finished run
// through a custom BenchmarkReporter and emit one record with a
// `<BM_Name>.cpu_seconds` / `<BM_Name>.real_seconds` metric pair per
// benchmark (per-iteration, better=lower). Replace BENCHMARK_MAIN() with:
//
//   int main(int argc, char** argv) {
//     return benchutil::gbench_main(argc, argv, "micro_codecs");
//   }
//
// Every other gbench flag (--benchmark_filter, --benchmark_format, ...) is
// passed through untouched; --json-out FILE is stripped before
// benchmark::Initialize sees it.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

#include "sciprep/apps/benchreport.hpp"

namespace benchutil {

/// The normal console reporter, additionally capturing every finished run
/// into a BenchReporter. (The display-reporter slot is used because gbench
/// refuses a file reporter unless --benchmark_out is also given.)
class BenchRecordReporter : public benchmark::ConsoleReporter {
 public:
  explicit BenchRecordReporter(sciprep::apps::BenchReporter* out)
      : out_(out) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.error_occurred || run.run_type != Run::RT_Iteration) continue;
      const double iters =
          run.iterations > 0 ? static_cast<double>(run.iterations) : 1.0;
      const std::string name = run.benchmark_name();
      out_->add_metric(name + ".cpu_seconds", run.cpu_accumulated_time / iters,
                       "seconds", "measured", /*better_higher=*/false);
      out_->add_metric(name + ".real_seconds",
                       run.real_accumulated_time / iters, "seconds",
                       "measured", /*better_higher=*/false);
    }
  }

 private:
  sciprep::apps::BenchReporter* out_;
};

/// Drop-in BENCHMARK_MAIN() replacement adding --json-out.
inline int gbench_main(int argc, char** argv, const char* bench_name) {
  std::string json_out;
  std::vector<char*> pass;
  pass.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--json-out" && i + 1 < argc) {
      json_out = argv[++i];
    } else {
      pass.push_back(argv[i]);
    }
  }
  int pass_argc = static_cast<int>(pass.size());
  pass.push_back(nullptr);

  benchmark::Initialize(&pass_argc, pass.data());
  if (benchmark::ReportUnrecognizedArguments(pass_argc, pass.data())) return 1;

  sciprep::apps::BenchReporter reporter(bench_name);
  reporter.set_config("default");
  BenchRecordReporter console(&reporter);
  benchmark::RunSpecifiedBenchmarks(&console);
  benchmark::Shutdown();

  if (!json_out.empty()) {
    reporter.write(json_out);
    std::printf("bench record: -> %s\n", json_out.c_str());
  }
  return 0;
}

}  // namespace benchutil
