// loadbench — consumer-side loader benchmark for sciprep.
//
//   loadbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--work-dir <dir>] [--damage]
//   loadbench --validate-inputs --workload <name> --seed <n>
//
// One closed-loop consumer thread asks for its next batch only after the
// previous one arrived, with no simulated training compute, so the numbers
// measure loader capacity. The last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
// --trace 0, the per-layer metrics of a traced run with --trace 1. The exit
// code is 0 only when the output check passed. See loadbench/README.md.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "sciprep/common/format.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace loadbench {
namespace {

using sciprep::fmt;

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must match "end_to_end" and "per_layer" in BENCHMARK.json.
constexpr MetricDef kEndToEnd[] = {
    {"samples_per_s", "samples/s"},  {"batch_wait_p50_ms", "ms"},
    {"batch_wait_p90_ms", "ms"},     {"cpu_ms_per_sample", "ms"},
    {"setup_s", "s"},                {"peak_rss_mb", "MB"},
    {"storage_ratio", "x"},          {"lossy_value_fraction", "fraction"},
    {"failed_fraction", "fraction"},
};

constexpr MetricDef kPerLayer[] = {
    {"data.generate_ms_per_sample", "ms"},
    {"codec.cosmo.encode_ms_per_sample", "ms"},
    {"codec.cam.encode_ms_per_sample", "ms"},
    {"codec.cosmo.decode_ms_per_sample", "ms"},
    {"codec.cosmo.decode_out_mb_per_s", "MB/s"},
    {"codec.cam.decode_ms_per_sample", "ms"},
    {"codec.cam.decode_in_mb_per_s", "MB/s"},
    {"codec.cosmo.reference_ms_per_sample", "ms"},
    {"compress.inflate_mb_per_s", "MB/s"},
    {"compress.deflate_ms_per_sample", "ms"},
    {"io.tfrecord_parse_ms_per_sample", "ms"},
    {"pipeline.decode_path_ms_per_sample", "ms"},
    {"pipeline.ops_ms_per_sample", "ms"},
    {"pipeline.overhead_cpu_ms_per_sample", "ms"},
    {"pipeline.worker_efficiency", "fraction"},
    {"pipeline.samples_skipped", "count"},
    {"pipeline.retries", "count"},
    {"serve.next_batch_ms.p50", "ms"},
    {"serve.next_batch_ms.p90", "ms"},
    {"serve.cache.hit_ratio", "fraction"},
    {"serve.cache.lookups", "count"},
    {"wire.next_ms.p50", "ms"},
    {"wire.next_ms.p90", "ms"},
    {"wire.self_ms_per_batch", "ms"},
    {"wire.payload_mb_per_s", "MB/s"},
    {"wire.attach_ms", "ms"},
    {"wire.reconnects", "count"},
    {"wire.retries", "count"},
    {"wire.corrupt_frames", "count"},
    {"obs.trace_overhead_fraction", "fraction"},
};

/// Set-ups per end-to-end run; setup_s is their median. A traced run sets up
/// once.
constexpr int kSetups = 3;

/// Fractions are reported no lower than this, so that a clean run reads a
/// small constant rather than 0 and medians compare as ratios between runs.
constexpr double kFractionFloor = 1e-9;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool damage = false;
  bool validate_inputs = false;
  std::string work_dir = ".";
};

[[noreturn]] void usage(const std::string& problem) {
  std::fprintf(stderr,
               "loadbench: %s\n"
               "usage: loadbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--work-dir <dir>] [--damage]\n"
               "       loadbench --validate-inputs --workload <name> "
               "--seed <n>\n",
               problem.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + flag);
      return argv[++i];
    };
    try {
      if (flag == "--workload") {
        a.workload = value();
      } else if (flag == "--seed") {
        a.seed = std::stoull(value());
      } else if (flag == "--seconds") {
        a.seconds = std::stod(value());
      } else if (flag == "--trace") {
        a.trace = std::stoi(value()) != 0;
      } else if (flag == "--work-dir") {
        a.work_dir = value();
      } else if (flag == "--damage") {
        a.damage = true;
      } else if (flag == "--validate-inputs") {
        a.validate_inputs = true;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag);
    }
  }
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), a.workload) == names.end()) {
    usage("--workload must be one of cosmo-local, cosmo-gzip, cam-served, "
          "cosmo-served-cached");
  }
  if (!(a.seconds > 0)) usage("bad --seconds");
  return a;
}

double cpu_seconds() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;  // ru_maxrss is KiB
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000U, nullptr) >= 0x80000004U) {
    for (unsigned int i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002U + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    std::string model(reinterpret_cast<const char*>(regs), sizeof(regs));
    model = model.c_str();  // drop trailing NULs
    const auto first = model.find_first_not_of(' ');
    if (first != std::string::npos) return model.substr(first);
  }
#endif
  return "unknown";
}

/// Host and build identity. Results from different fingerprints are not
/// comparable.
std::string fingerprint_json() {
#ifdef SCIPREP_OBS_DISABLED
  constexpr bool kObsDisabled = true;
#else
  constexpr bool kObsDisabled = false;
#endif
  std::string model = cpu_model();
  std::replace(model.begin(), model.end(), '"', '\'');
  return fmt("{{\"nproc\": {}, \"cpu\": \"{}\", \"llc_bytes\": {}, "
             "\"build_type\": \"{}\", \"compiler\": \"{}\", "
             "\"obs_disabled\": {}}}",
             ::sysconf(_SC_NPROCESSORS_ONLN), model, llc_bytes(),
             LOADBENCH_BUILD_TYPE, LOADBENCH_COMPILER, kObsDisabled);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (const double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

/// k / n, floored at kFractionFloor; 1 when nothing was counted.
double fraction(std::uint64_t k, std::uint64_t n) {
  if (n == 0) return 1;
  return std::max(kFractionFloor,
                  static_cast<double>(k) / static_cast<double>(n));
}

TimedRegion run_timed(Workload& w, double seconds) {
  TimedRegion r;
  sciprep::pipeline::Batch batch;
  const double cpu0 = cpu_seconds();
  r.start_ns = now_ns();
  const std::int64_t end =
      r.start_ns + static_cast<std::int64_t>(seconds * 1e9);
  while (now_ns() < end) {
    ++r.attempted;
    const std::int64_t start = now_ns();
    try {
      if (!w.next(batch)) {
        ++r.failed;
        r.error = "stream ended inside the timed region";
        break;
      }
    } catch (const std::exception& e) {
      ++r.failed;
      r.error = e.what();
      break;
    }
    r.wait_ms.push_back(static_cast<double>(now_ns() - start) / 1e6);
    if (w.well_formed(batch)) {
      r.samples += static_cast<std::uint64_t>(batch.size());
      for (const auto& t : batch.samples) {
        r.payload_bytes += t.values.size() * sizeof(sciprep::Half) +
                           t.byte_labels.size() +
                           t.float_labels.size() * sizeof(float);
      }
    } else {
      ++r.failed;
      r.error = "malformed batch";
    }
    r.marks.push_back({now_ns(), cpu_seconds() - cpu0, r.samples});
  }
  r.wall_s = static_cast<double>(now_ns() - r.start_ns) / 1e9;
  return r;
}

/// The timing metrics of a timed region.
struct Timings {
  double samples_per_s = 0;
  double wait_p50_ms = 0;
  double wait_p90_ms = 0;
  double cpu_ms_per_sample = 0;
  std::size_t windows = 0;
};

/// Each window holds at least this many calls, so its p90 has at least ten
/// waits above it.
constexpr std::size_t kMinWindowCalls = 100;
constexpr std::size_t kMaxWindows = 6;

/// The region's timing metrics as medians over back-to-back windows of at
/// least kMinWindowCalls calls each (at most kMaxWindows). On a shared host a
/// burst of outside load then moves a minority of windows rather than the
/// result. A region of fewer than 2 * kMinWindowCalls calls is one window.
Timings timings(const TimedRegion& r) {
  const std::size_t n = r.marks.size();
  if (n == 0) return {};
  const std::size_t k =
      std::clamp<std::size_t>(n / kMinWindowCalls, 1, kMaxWindows);
  std::vector<double> sps, p50, p90, cpu;
  TimedRegion::Mark from{r.start_ns, 0, 0};
  for (std::size_t i = 0; i < k; ++i) {
    const auto lo = static_cast<std::ptrdiff_t>(i * n / k);
    const auto hi = static_cast<std::ptrdiff_t>((i + 1) * n / k);
    const TimedRegion::Mark& to = r.marks[static_cast<std::size_t>(hi - 1)];
    const std::vector<double> waits(r.wait_ms.begin() + lo,
                                    r.wait_ms.begin() + hi);
    const auto samples = static_cast<double>(to.samples - from.samples);
    sps.push_back(samples / (static_cast<double>(to.ns - from.ns) / 1e9));
    cpu.push_back(samples > 0 ? (to.cpu_s - from.cpu_s) * 1e3 / samples : 0);
    p50.push_back(percentile(waits, 0.5));
    p90.push_back(percentile(waits, 0.9));
    from = to;
  }
  return {percentile(sps, 0.5), percentile(p50, 0.5), percentile(p90, 0.5),
          percentile(cpu, 0.5), k};
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::map<std::string, double>& values,
                  const MetricDef* defs, std::size_t n_defs) {
  std::string metrics;
  for (std::size_t i = 0; i < n_defs; ++i) {
    const auto it = values.find(defs[i].name);
    if (it == values.end()) continue;
    const double v = std::isfinite(it->second) ? it->second : 0.0;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    metrics += fmt("{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                   metrics.empty() ? "" : ", ", defs[i].name, buf,
                   defs[i].unit);
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false", static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), metrics.c_str());
  std::fflush(stdout);
}

void print_metrics(const std::map<std::string, double>& values,
                   const MetricDef* defs, std::size_t n_defs) {
  for (std::size_t i = 0; i < n_defs; ++i) {
    const auto it = values.find(defs[i].name);
    if (it == values.end()) continue;
    std::printf("loadbench metric %-38s %14.6g %s\n", defs[i].name, it->second,
                defs[i].unit);
  }
}

/// Per-layer numbers taken from the span log and the two timed halves.
void derived_layer_metrics(const SpanLog& log, const TimedRegion& untraced,
                           const TimedRegion& traced, std::size_t workers,
                           std::map<std::string, double>& out) {
  out["data.generate_ms_per_sample"] = mean(log.durations_ms("data.generate"));
  out["codec.cosmo.encode_ms_per_sample"] =
      mean(log.durations_ms("codec.cosmo.encode"));
  out["codec.cam.encode_ms_per_sample"] =
      mean(log.durations_ms("codec.cam.encode"));
  out["compress.deflate_ms_per_sample"] =
      mean(log.durations_ms("compress.deflate"));
  out["wire.attach_ms"] = mean(log.durations_ms("wire.attach"));

  const std::vector<double> wire_ms =
      log.durations_ms("wire.next", traced.root_span);
  if (!wire_ms.empty()) {
    out["wire.next_ms.p50"] = percentile(wire_ms, 0.5);
    out["wire.next_ms.p90"] = percentile(wire_ms, 0.9);
    out["wire.self_ms_per_batch"] =
        out["wire.next_ms.p50"] - out["serve.next_batch_ms.p50"];
    double total_ms = 0;
    for (const double d : wire_ms) total_ms += d;
    out["wire.payload_mb_per_s"] =
        static_cast<double>(traced.payload_bytes) / 1e6 / (total_ms / 1e3);
  }
  const Timings base = timings(untraced);
  const double decode_ms = out["pipeline.decode_path_ms_per_sample"];
  out["pipeline.overhead_cpu_ms_per_sample"] =
      base.cpu_ms_per_sample - decode_ms;
  out["pipeline.worker_efficiency"] = decode_ms / 1e3 * base.samples_per_s /
                                      static_cast<double>(workers);
  out["obs.trace_overhead_fraction"] =
      base.samples_per_s > 0
          ? 1 - timings(traced).samples_per_s / base.samples_per_s
          : 0;
}

int run(const Args& a) {
  const std::string fingerprint = fingerprint_json();
  std::printf("loadbench fingerprint %s\n", fingerprint.c_str());

  SpanLog log(a.trace);
  WorkloadOptions options;
  options.name = a.workload;
  options.seed = a.seed;
  options.damage = a.damage;
  options.work_dir = a.work_dir;

  // Set up several times and report the median; every set-up but the last
  // is torn down before the next starts.
  const int setups = a.trace ? 1 : kSetups;
  std::vector<double> setup_s;
  std::unique_ptr<Workload> w;
  try {
    for (int k = 0; k < setups; ++k) {
      w.reset();
      const std::int64_t t0 = now_ns();
      w = make_workload(options, log);
      w->setup();
      setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "loadbench: set-up failed: %s\n", e.what());
    print_result(false, 1, 1, {}, kEndToEnd, 0);
    return 1;
  }
  const InputsInfo& in = w->inputs();
  std::printf(
      "loadbench inputs workload=%s seed=%llu digest=%s distinct=%zu "
      "stored=%zu raw_bytes=%llu stored_bytes=%llu %s\n",
      a.workload.c_str(), static_cast<unsigned long long>(a.seed),
      fmt("{:x}", in.digest).c_str(), in.distinct, in.stored,
      static_cast<unsigned long long>(in.raw_bytes),
      static_cast<unsigned long long>(in.stored_bytes), in.detail.c_str());
  std::string setups_line;
  for (const double s : setup_s) setups_line += fmt(" {:.3f}", s);
  std::printf("loadbench setup_s per set-up:%s\n", setups_line.c_str());

  TimedRegion timed;
  TimedRegion traced;
  const std::pair<std::uint64_t, std::uint64_t> cache0 = w->cache_counters();
  if (a.trace) {
    log.set_enabled(false);
    timed = run_timed(*w, a.seconds / 2);
    log.set_enabled(true);
    const int root = log.open("timed", "loadbench");
    traced = run_timed(*w, a.seconds / 2);
    traced.root_span = root;
    log.close(root);
  } else {
    timed = run_timed(*w, a.seconds);
  }
  const std::pair<std::uint64_t, std::uint64_t> cache1 = w->cache_counters();

  log.set_enabled(false);
  const CheckResult check = w->check();
  const std::uint64_t attempted =
      timed.attempted + traced.attempted + check.batches;
  const std::uint64_t failed = timed.failed + traced.failed + check.mismatched;
  const bool correct = failed == 0 && check.lossy_ok;
  const Timings t = timings(timed);
  std::printf(
      "loadbench timed batches=%zu samples=%llu wall_s=%.3f windows=%zu; "
      "over the whole region wait_ms p10=%.3f p25=%.3f p50=%.3f p75=%.3f "
      "p90=%.3f p99=%.3f\n",
      timed.wait_ms.size(), static_cast<unsigned long long>(timed.samples),
      timed.wall_s, t.windows, percentile(timed.wait_ms, 0.1),
      percentile(timed.wait_ms, 0.25), percentile(timed.wait_ms, 0.5),
      percentile(timed.wait_ms, 0.75),
      percentile(timed.wait_ms, 0.9), percentile(timed.wait_ms, 0.99));
  std::printf(
      "loadbench check batches=%llu mismatched=%llu lossy=%llu/%llu "
      "(bound %.3g) -> %s%s%s\n",
      static_cast<unsigned long long>(check.batches),
      static_cast<unsigned long long>(check.mismatched),
      static_cast<unsigned long long>(check.lossy_bad),
      static_cast<unsigned long long>(check.lossy_values), check.lossy_bound,
      correct ? "ok" : "FAILED", timed.error.empty() ? "" : ": ",
      timed.error.c_str());
  if (!check.error.empty()) {
    std::printf("loadbench check error: %s\n", check.error.c_str());
  }

  std::map<std::string, double> values;
  if (!a.trace) {
    values["samples_per_s"] = t.samples_per_s;
    values["batch_wait_p50_ms"] = t.wait_p50_ms;
    values["batch_wait_p90_ms"] = t.wait_p90_ms;
    values["cpu_ms_per_sample"] = t.cpu_ms_per_sample;
    values["setup_s"] = percentile(setup_s, 0.5);
    values["peak_rss_mb"] = peak_rss_mb();
    values["storage_ratio"] = static_cast<double>(in.raw_bytes) /
                              static_cast<double>(in.stored_bytes);
    values["lossy_value_fraction"] =
        fraction(check.lossy_bad, check.lossy_values);
    values["failed_fraction"] = fraction(failed, attempted);
    print_metrics(values, kEndToEnd, std::size(kEndToEnd));
    print_result(correct, attempted, failed, values, kEndToEnd,
                 std::size(kEndToEnd));
    return correct ? 0 : 1;
  }

  for (const MetricDef& d : kPerLayer) values[d.name] = 0;
  try {
    log.set_enabled(true);
    w->layer_metrics(values, a.seconds);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "loadbench: layer metrics failed: %s\n", e.what());
    print_result(false, attempted, failed + 1, values, kPerLayer, 0);
    return 1;
  }
  const std::uint64_t hits = cache1.first - cache0.first;
  const std::uint64_t lookups = hits + (cache1.second - cache0.second);
  values["serve.cache.lookups"] = static_cast<double>(lookups);
  values["serve.cache.hit_ratio"] =
      lookups > 0 ? static_cast<double>(hits) / static_cast<double>(lookups)
                  : 0;
  derived_layer_metrics(log, timed, traced, in.workers, values);
  w.reset();

  const std::string trace_path =
      fmt("{}/trace-{}-{}.json", a.work_dir, a.workload, a.seed);
  std::ofstream(trace_path) << log.chrome_json(fingerprint);
  std::printf("loadbench trace written to %s (open in ui.perfetto.dev)\n",
              trace_path.c_str());
  std::printf("loadbench self time by span (span minus its children):\n%s",
              log.self_time_table().c_str());
  std::printf(
      "loadbench untraced samples_per_s=%.3f traced samples_per_s=%.3f\n",
      t.samples_per_s, timings(traced).samples_per_s);
  print_metrics(values, kPerLayer, std::size(kPerLayer));
  print_result(correct, attempted, failed, values, kPerLayer,
               std::size(kPerLayer));
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace loadbench

int main(int argc, char** argv) {
  const loadbench::Args args = loadbench::parse_args(argc, argv);
  try {
    if (args.validate_inputs) {
      std::printf("loadbench inputs-valid %s\n",
                  loadbench::validate_inputs(args.workload, args.seed).c_str());
      return 0;
    }
    return loadbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "loadbench: %s\n", e.what());
    return 1;
  }
}
