#include "sciprep/perfscope/benchreport.hpp"

#include <thread>
#include <utility>

#include <unistd.h>

#include "sciprep/common/buffer.hpp"
#include "sciprep/common/crc.hpp"
#include "sciprep/common/format.hpp"
#include "sciprep/common/sysio.hpp"
#include "sciprep/obs/json.hpp"

namespace sciprep::perfscope {

const BenchMetric* BenchRecord::find_metric(const std::string& name) const {
  for (const BenchMetric& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

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

std::string bench_record_to_json(const BenchRecord& record) {
  std::string out;
  out.reserve(2048);
  out += fmt(
      "{{\"schema\":\"{}\",\"bench\":\"{}\",\"host\":{},"
      "\"wall_seconds\":{},\"sim_charged_seconds\":{},\"config\":\"{}\","
      "\"config_fingerprint\":\"{}\"",
      kBenchSchema, obs::json_escape(record.bench), host_info_json(),
      obs::json_number(record.wall_seconds),
      obs::json_number(record.sim_charged_seconds),
      obs::json_escape(record.config),
      obs::json_escape(record.config_fingerprint));
  if (record.has_resources) {
    out += fmt(",\"resources\":{}", record.resources.to_json());
  }
  out += ",\"metrics\":[";
  bool first = true;
  for (const BenchMetric& m : record.metrics) {
    if (!first) out += ',';
    first = false;
    out += fmt(
        "{{\"name\":\"{}\",\"value\":{},\"unit\":\"{}\",\"kind\":\"{}\","
        "\"better\":\"{}\",\"noise_floor\":{}}}",
        obs::json_escape(m.name), obs::json_number(m.value),
        obs::json_escape(m.unit), obs::json_escape(m.kind),
        m.better_higher ? "higher" : "lower", obs::json_number(m.noise_floor));
  }
  out += "],\"stages\":{";
  first = true;
  for (const auto& [stage, busy] : record.stage_busy_seconds) {
    if (!first) out += ',';
    first = false;
    out += fmt("\"{}\":{}", obs::json_escape(stage), obs::json_number(busy));
  }
  out += "},\"latencies\":{";
  first = true;
  for (const auto& [stage, lat] : record.latencies) {
    if (!first) out += ',';
    first = false;
    out += fmt("\"{}\":{{\"p50\":{},\"p99\":{}}}", obs::json_escape(stage),
               obs::json_number(lat.p50_seconds),
               obs::json_number(lat.p99_seconds));
  }
  out += "}}";
  return out;
}

bool bench_record_from_json(const obs::JsonValue& doc, BenchRecord& out) {
  if (!doc.is_object()) return false;
  if (doc.string_or("schema", "") != kBenchSchema) return false;
  out = BenchRecord{};
  out.bench = doc.string_or("bench", "");
  if (out.bench.empty()) return false;
  out.wall_seconds = doc.number_or("wall_seconds", 0);
  out.sim_charged_seconds = doc.number_or("sim_charged_seconds", 0);
  out.config = doc.string_or("config", "");
  out.config_fingerprint = doc.string_or("config_fingerprint", "");
  const obs::JsonValue& res = doc.at("resources");
  if (res.is_object()) {
    out.has_resources = true;
    out.resources.ok = res.at("ok").as_bool(false);
    out.resources.cpu_utime_seconds = res.number_or("cpu_utime_seconds", 0);
    out.resources.cpu_stime_seconds = res.number_or("cpu_stime_seconds", 0);
    auto u64 = [&](const char* key) {
      return static_cast<std::uint64_t>(res.number_or(key, 0));
    };
    out.resources.rss_bytes = u64("rss_bytes");
    out.resources.peak_rss_bytes = u64("peak_rss_bytes");
    out.resources.minor_faults = u64("minor_faults");
    out.resources.major_faults = u64("major_faults");
    out.resources.ctx_voluntary = u64("ctx_voluntary");
    out.resources.ctx_involuntary = u64("ctx_involuntary");
    out.resources.io_read_bytes = u64("io_read_bytes");
    out.resources.io_write_bytes = u64("io_write_bytes");
    out.resources.threads = u64("threads");
  }
  for (const obs::JsonValue& m : doc.at("metrics").as_array()) {
    BenchMetric metric;
    metric.name = m.string_or("name", "");
    if (metric.name.empty()) return false;
    metric.value = m.number_or("value", 0);
    metric.unit = m.string_or("unit", "");
    metric.kind = m.string_or("kind", "measured");
    metric.better_higher = m.string_or("better", "higher") != "lower";
    metric.noise_floor = m.number_or("noise_floor", 0);
    out.metrics.push_back(std::move(metric));
  }
  for (const auto& [stage, busy] : doc.at("stages").as_object()) {
    out.stage_busy_seconds[stage] = busy.as_number(0);
  }
  for (const auto& [stage, lat] : doc.at("latencies").as_object()) {
    out.latencies[stage] = {lat.number_or("p50", 0), lat.number_or("p99", 0)};
  }
  return true;
}

BenchReporter::BenchReporter(std::string bench_name)
    : started_at_(std::chrono::steady_clock::now()) {
  record_.bench = std::move(bench_name);
}

void BenchReporter::set_config(const std::string& config) {
  record_.config = config;
  record_.config_fingerprint = fmt("{:x}", crc32c(as_bytes(config)));
}

void BenchReporter::add_metric(const std::string& name, double value,
                               const std::string& unit,
                               const std::string& kind, bool better_higher,
                               double noise_floor) {
  record_.metrics.push_back(
      {name, value, unit, kind, better_higher, noise_floor});
}

void BenchReporter::charge_sim_seconds(double seconds) {
  record_.sim_charged_seconds += seconds;
}

void BenchReporter::set_stage_costs(const insight::BottleneckReport& report) {
  for (const insight::StageCost& stage : report.stages) {
    if (stage.busy_seconds > 0) {
      record_.stage_busy_seconds[stage.name] = stage.busy_seconds;
    }
  }
}

void BenchReporter::add_latency(const std::string& stage, double p50_seconds,
                                double p99_seconds) {
  record_.latencies[stage] = {p50_seconds, p99_seconds};
}

BenchRecord BenchReporter::snapshot() const {
  BenchRecord record = record_;
  record.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    started_at_)
          .count();
  const ResourceSample res = ResourceSampler::sample();
  record.has_resources = res.ok;
  record.resources = res;
  return record;
}

std::string BenchReporter::to_json() const {
  return bench_record_to_json(snapshot());
}

void BenchReporter::write(const std::string& path) const {
  sysio::write_file_atomic(path, as_bytes(to_json() + "\n"));
}

}  // namespace sciprep::perfscope
