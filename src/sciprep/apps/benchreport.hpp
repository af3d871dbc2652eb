// Machine-readable benchmark records (sciprep::apps).
//
// Every bench binary in this repo prints human tables; BenchReporter is the
// machine-readable twin they all share via a --json-out flag. One invocation
// produces one schema-versioned `sciprep.perf.bench.v2` document:
//
//   * a flat list of named metrics, each tagged with its unit, whether it
//     was measured on this host or modeled by the §5 step model, and which
//     direction is better;
//   * wall seconds (what the harness really spent) kept strictly separate
//     from sim-charged seconds (what the platform model billed) — DESIGN.md
//     §5's timing contract;
//   * a host-info block and a ResourceSample summary (peak RSS, CPU split,
//     context switches) so throughput is never read without its cost;
//   * the bench's knob string.
#pragma once

#include <chrono>
#include <string>
#include <vector>

#include "sciprep/obs/resource.hpp"

namespace sciprep::apps {

inline constexpr const char* kBenchSchema = "sciprep.perf.bench.v2";

/// One named scalar result. `kind` is "measured" (host timing) or "modeled"
/// (§5 step-model output).
struct BenchMetric {
  std::string name;
  double value = 0;
  std::string unit;            // "samples/s", "seconds", "fraction", ...
  std::string kind = "measured";
  bool better_higher = true;
};

/// Everything one bench invocation reports.
struct BenchRecord {
  std::string bench;               // "fig8_deepcam_throughput", ...
  double wall_seconds = 0;         // real harness time (measurement cost)
  double sim_charged_seconds = 0;  // platform-model billed time (0 = none)
  std::string config;              // knob string, e.g. "dim=32 repeat=3"
  obs::ResourceSample resources;   // end-of-bench reading (ok: present)
  std::vector<BenchMetric> metrics;
};

/// Builder used by the bench binaries: construct, add metrics as the bench
/// computes its rows, write at exit. Construction starts the wall clock;
/// write()/to_json() stamp it and capture the closing ResourceSample.
class BenchReporter {
 public:
  explicit BenchReporter(std::string bench_name);

  /// Record the bench's knob string (dims, repeats).
  void set_config(const std::string& config);

  void add_metric(const std::string& name, double value,
                  const std::string& unit, const std::string& kind,
                  bool better_higher = true);

  /// Add to the record's sim-charged total (modeled seconds, §5 contract).
  void charge_sim_seconds(double seconds);

  /// The record built so far, with wall_seconds and the resource summary
  /// stamped as of this call.
  [[nodiscard]] BenchRecord snapshot() const;

  /// The record as a complete v2 document, host block included. Output
  /// always passes obs::json_valid.
  [[nodiscard]] std::string to_json() const;

  /// Write the v2 document atomically (tmp + rename); throws IoError.
  void write(const std::string& path) const;

 private:
  BenchRecord record_;
  std::chrono::steady_clock::time_point started_at_;
};

}  // namespace sciprep::apps
