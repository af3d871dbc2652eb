#include "sciprep/apps/benchreport.hpp"

#include <thread>
#include <utility>

#include <unistd.h>

#include "sciprep/common/buffer.hpp"
#include "sciprep/common/format.hpp"
#include "sciprep/common/sysio.hpp"
#include "sciprep/obs/json.hpp"

namespace sciprep::apps {

namespace {

/// Hostname / core count / page size / build flavor, embedded in every
/// record so numbers from different hosts are never read as comparable.
std::string host_info_json() {
  char hostname[256] = "unknown";
  if (gethostname(hostname, sizeof(hostname)) != 0) {
    hostname[0] = '\0';
  }
  hostname[sizeof(hostname) - 1] = '\0';
  const long page = sysconf(_SC_PAGESIZE);
#if defined(SCIPREP_OBS_DISABLED)
  const bool obs_enabled = false;
#else
  const bool obs_enabled = true;
#endif
  return fmt("{{\"hostname\":\"{}\",\"cores\":{},\"page_size\":{},"
             "\"obs_enabled\":{}}}",
             obs::json_escape(hostname),
             std::thread::hardware_concurrency(), page > 0 ? page : 0,
             obs_enabled);
}

}  // namespace

BenchReporter::BenchReporter(std::string bench_name)
    : started_at_(std::chrono::steady_clock::now()) {
  record_.bench = std::move(bench_name);
}

void BenchReporter::set_config(const std::string& config) {
  record_.config = config;
}

void BenchReporter::add_metric(const std::string& name, double value,
                               const std::string& unit,
                               const std::string& kind, bool better_higher) {
  record_.metrics.push_back({name, value, unit, kind, better_higher});
}

void BenchReporter::charge_sim_seconds(double seconds) {
  record_.sim_charged_seconds += seconds;
}

BenchRecord BenchReporter::snapshot() const {
  BenchRecord record = record_;
  record.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    started_at_)
          .count();
  record.resources = obs::ResourceSampler::sample();
  return record;
}

std::string BenchReporter::to_json() const {
  const BenchRecord record = snapshot();
  std::string out;
  out.reserve(2048);
  out += fmt(
      "{{\"schema\":\"{}\",\"bench\":\"{}\",\"host\":{},"
      "\"wall_seconds\":{},\"sim_charged_seconds\":{},\"config\":\"{}\"",
      kBenchSchema, obs::json_escape(record.bench), host_info_json(),
      obs::json_number(record.wall_seconds),
      obs::json_number(record.sim_charged_seconds),
      obs::json_escape(record.config));
  if (record.resources.ok) {
    out += fmt(",\"resources\":{}", record.resources.to_json());
  }
  out += ",\"metrics\":[";
  bool first = true;
  for (const BenchMetric& m : record.metrics) {
    if (!first) out += ',';
    first = false;
    out += fmt(
        "{{\"name\":\"{}\",\"value\":{},\"unit\":\"{}\",\"kind\":\"{}\","
        "\"better\":\"{}\"}}",
        obs::json_escape(m.name), obs::json_number(m.value),
        obs::json_escape(m.unit), obs::json_escape(m.kind),
        m.better_higher ? "higher" : "lower");
  }
  out += "]}";
  return out;
}

void BenchReporter::write(const std::string& path) const {
  sysio::write_file_atomic(path, as_bytes(to_json() + "\n"));
}

}  // namespace sciprep::apps
