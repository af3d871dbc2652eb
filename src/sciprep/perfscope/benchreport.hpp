// Machine-readable benchmark records (sciprep::perfscope).
//
// Every bench binary in this repo prints human tables; BenchReporter is the
// machine-readable twin they all share via a --json-out flag. One invocation
// produces one schema-versioned `sciprep.perf.bench.v1` document:
//
//   * a flat list of named metrics, each tagged with its unit, whether it
//     was measured on this host or modeled by the §5 step model, which
//     direction is better, and an absolute noise floor the regression gate
//     must respect;
//   * wall seconds (what the harness really spent) kept strictly separate
//     from sim-charged seconds (what the platform model billed) — DESIGN.md
//     §5's timing contract;
//   * per-stage busy seconds lifted from an insight BottleneckReport and
//     p50/p99 stage latencies, when the bench ran a real pipeline;
//   * a host-info block and a ResourceSample summary (peak RSS, CPU split,
//     context switches) so throughput is never read without its cost;
//   * a config string + fingerprint so trajectories only compare like runs.
//
// perfbench merges these records into a BENCH_*.json trajectory
// (trajectory.hpp) and perfcompare diffs trajectories (compare.hpp).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sciprep/insight/analyze.hpp"
#include "sciprep/obs/json.hpp"
#include "sciprep/perfscope/resource.hpp"

namespace sciprep::perfscope {

inline constexpr const char* kBenchSchema = "sciprep.perf.bench.v1";

/// One named scalar result. `kind` is "measured" (host timing) or "modeled"
/// (§5 step-model output). `noise_floor` is an absolute tolerance in the
/// metric's own unit below which differences are meaningless — overhead
/// fractions, for example, wobble a few points run to run.
struct BenchMetric {
  std::string name;
  double value = 0;
  std::string unit;            // "samples/s", "seconds", "fraction", ...
  std::string kind = "measured";
  bool better_higher = true;
  double noise_floor = 0;
};

/// p50/p99 summary of one latency histogram.
struct LatencySummary {
  double p50_seconds = 0;
  double p99_seconds = 0;
};

/// Everything one bench invocation reports.
struct BenchRecord {
  std::string bench;               // "fig8_deepcam_throughput", ...
  double wall_seconds = 0;         // real harness time (measurement cost)
  double sim_charged_seconds = 0;  // platform-model billed time (0 = none)
  std::string config;              // knob string, e.g. "dim=32 repeat=3"
  std::string config_fingerprint;  // crc32c(config) in hex
  bool has_resources = false;
  ResourceSample resources;        // end-of-bench reading
  std::vector<BenchMetric> metrics;
  std::map<std::string, double> stage_busy_seconds;   // from BottleneckReport
  std::map<std::string, LatencySummary> latencies;    // per stage histogram

  [[nodiscard]] const BenchMetric* find_metric(const std::string& name) const;
};

/// Hostname / core count / page size / build flavor, embedded in every
/// record so a trajectory mixing hosts is detectable.
[[nodiscard]] std::string host_info_json();

/// Serialize a record as a complete sciprep.perf.bench.v1 document
/// (including the host block). Output always passes obs::json_valid.
[[nodiscard]] std::string bench_record_to_json(const BenchRecord& record);

/// Parse a v1 document (as produced above) back into a record. Returns false
/// on schema mismatch or missing required fields.
[[nodiscard]] bool bench_record_from_json(const obs::JsonValue& doc,
                                          BenchRecord& out);

/// Builder used by the bench binaries: construct, add metrics as the bench
/// computes its rows, write at exit. Construction starts the wall clock;
/// write()/to_json() stamp it and capture the closing ResourceSample.
class BenchReporter {
 public:
  explicit BenchReporter(std::string bench_name);

  /// Record the bench's knob string (dims, repeats); also derives the
  /// fingerprint trajectories use to refuse cross-config comparisons.
  void set_config(const std::string& config);

  void add_metric(const std::string& name, double value,
                  const std::string& unit, const std::string& kind,
                  bool better_higher = true, double noise_floor = 0);

  /// Add to the record's sim-charged total (modeled seconds, §5 contract).
  void charge_sim_seconds(double seconds);

  /// Lift per-stage exclusive busy seconds out of an insight report.
  void set_stage_costs(const insight::BottleneckReport& report);

  void add_latency(const std::string& stage, double p50_seconds,
                   double p99_seconds);

  /// The record built so far, with wall_seconds and the resource summary
  /// stamped as of this call.
  [[nodiscard]] BenchRecord snapshot() const;

  [[nodiscard]] std::string to_json() const;

  /// Write the v1 document atomically (tmp + rename); throws IoError.
  void write(const std::string& path) const;

 private:
  BenchRecord record_;
  std::chrono::steady_clock::time_point started_at_;
};

}  // namespace sciprep::perfscope
