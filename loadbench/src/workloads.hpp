// The benchmark's four workloads, each driven through sciprep's public API
// from the one load-generating thread (see loadbench/README.md for why each
// exists and what it is predicted to move).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sciprep/pipeline/pipeline.hpp"
#include "spans.hpp"

namespace loadbench {

struct WorkloadOptions {
  std::string name;
  std::uint64_t seed = 1;
  /// Store one sample damaged so that it still decodes, to different
  /// values; the reference keeps the pristine one, so the output check must
  /// fail.
  bool damage = false;
  /// Directory for the wire socket (relative paths keep it short).
  std::string work_dir = ".";
};

/// Consumer-visible record of one timed region.
struct TimedRegion {
  /// Taken as each successful call returns.
  struct Mark {
    std::int64_t ns = 0;            // now_ns()
    double cpu_s = 0;               // process CPU since the region started
    std::uint64_t samples = 0;      // samples delivered so far
  };

  std::uint64_t attempted = 0;  // batches asked for
  std::uint64_t failed = 0;  // threw, ended early, or malformed
  std::uint64_t samples = 0;
  std::uint64_t payload_bytes = 0;  // decoded bytes handed to the consumer
  std::int64_t start_ns = 0;
  double wall_s = 0;
  std::vector<double> wait_ms;  // time inside each successful call
  std::vector<Mark> marks;      // one per entry of wait_ms
  std::string error;
  int root_span = -1;  // span enclosing the region's calls when traced
};

/// Outcome of the output check, which runs outside every timed region.
struct CheckResult {
  std::uint64_t batches = 0;     // batches checked
  std::uint64_t mismatched = 0;  // of those, wrong or failed
  /// Values of the fixed-seed calibration set checked, and those > 10%
  /// relative error vs the FP32 reference (the reported fraction).
  std::uint64_t lossy_values = 0;
  std::uint64_t lossy_bad = 0;
  double lossy_bound = 0;  // stated bound on the fraction
  bool lossy_ok = false;   // run's samples and calibration set within it
  std::string error;
};

/// Sizes of the generated and stored inputs, printed with every result.
struct InputsInfo {
  std::size_t distinct = 0;  // generated samples
  std::size_t stored = 0;    // samples in the stored set
  std::uint64_t raw_bytes = 0;     // serialized bytes over the stored set
  std::uint64_t stored_bytes = 0;  // stored bytes over the stored set
  std::uint32_t digest = 0;        // CRC-32C over the generated inputs
  std::size_t workers = 0;  // decode workers of the pipeline or service
  std::string detail;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Everything before the first timed batch: generate, encode or compress,
  /// start the pipeline or service + server, attach, one warm-up epoch.
  virtual void setup() = 0;
  /// One consumer call for the next batch (throws on failure).
  virtual bool next(sciprep::pipeline::Batch& batch) = 0;
  /// Cheap structural check run on every timed batch.
  [[nodiscard]] virtual bool well_formed(
      const sciprep::pipeline::Batch& batch) const = 0;
  /// Full output check (CRC of the delivered stream against a reference,
  /// and the lossy-value fraction).
  virtual CheckResult check() = 0;
  /// Cumulative (hits, misses) of the shared decode cache; zero without one.
  [[nodiscard]] virtual std::pair<std::uint64_t, std::uint64_t>
  cache_counters() const {
    return {0, 0};
  }
  /// Traced run only: time isolated calls into the inner layers on this
  /// workload's inputs and fill the per-layer metrics the workload owns.
  /// May tear down the serving stack.
  virtual void layer_metrics(std::map<std::string, double>& out,
                             double seconds) = 0;

  [[nodiscard]] const InputsInfo& inputs() const noexcept { return info_; }

 protected:
  InputsInfo info_;
};

/// Last-level cache size as the host reports it (105 MiB if it does not).
std::uint64_t llc_bytes();

/// The workload names, in the order BENCHMARK.json lists them.
const std::vector<std::string>& workload_names();

/// Throws sciprep::ConfigError for an unknown name.
std::unique_ptr<Workload> make_workload(const WorkloadOptions& options,
                                        SpanLog& log);

/// Generate every distinct sample of `name`'s config at its stated size,
/// serialize and store it, decode it back, and check shape and size. Returns
/// a one-line description with the input digest; throws on any invalid
/// sample.
std::string validate_inputs(const std::string& name, std::uint64_t seed);

}  // namespace loadbench
