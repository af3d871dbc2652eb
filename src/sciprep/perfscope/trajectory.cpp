#include "sciprep/perfscope/trajectory.hpp"

#include <cstdio>
#include <utility>

#include "sciprep/common/error.hpp"
#include "sciprep/common/format.hpp"
#include "sciprep/common/sysio.hpp"
#include "sciprep/obs/json.hpp"

namespace sciprep::perfscope {

namespace {

bool read_file(const std::string& path, std::string& out) {
  try {
    const Bytes data = sysio::read_file(path);
    out.assign(data.begin(), data.end());
  } catch (const IoError&) {
    return false;
  }
  return true;
}

}  // namespace

bool load_trajectory(const std::string& path, Trajectory& out) {
  out = Trajectory{};
  std::string text;
  if (!read_file(path, text)) return false;
  obs::JsonValue doc;
  if (!obs::json_parse(text, doc)) return false;
  if (doc.string_or("schema", "") != kTrajectorySchema) return false;
  for (const obs::JsonValue& run_doc : doc.at("runs").as_array()) {
    BenchRun run;
    run.run_index = static_cast<std::uint64_t>(run_doc.number_or("run", 0));
    run.unix_time =
        static_cast<std::uint64_t>(run_doc.number_or("unix_time", 0));
    run.label = run_doc.string_or("label", "");
    for (const auto& [name, record_doc] : run_doc.at("benches").as_object()) {
      BenchRecord record;
      if (bench_record_from_json(record_doc, record)) {
        run.benches.emplace(name, std::move(record));
      }
    }
    out.runs.push_back(std::move(run));
  }
  return true;
}

void append_run(Trajectory& trajectory, BenchRun run, std::size_t max_runs) {
  run.run_index = trajectory.runs.empty()
                      ? 1
                      : trajectory.runs.back().run_index + 1;
  trajectory.runs.push_back(std::move(run));
  if (max_runs > 0 && trajectory.runs.size() > max_runs) {
    trajectory.runs.erase(
        trajectory.runs.begin(),
        trajectory.runs.begin() +
            static_cast<std::ptrdiff_t>(trajectory.runs.size() - max_runs));
  }
}

std::string trajectory_to_json(const Trajectory& trajectory) {
  std::string out;
  out.reserve(4096);
  out += fmt("{{\"schema\":\"{}\",\"runs\":[", kTrajectorySchema);
  bool first_run = true;
  for (const BenchRun& run : trajectory.runs) {
    if (!first_run) out += ',';
    first_run = false;
    out += fmt("\n{{\"run\":{},\"unix_time\":{},\"label\":\"{}\",\"benches\":{{",
               run.run_index, run.unix_time, obs::json_escape(run.label));
    bool first_bench = true;
    for (const auto& [name, record] : run.benches) {
      if (!first_bench) out += ',';
      first_bench = false;
      out += fmt("\n\"{}\":{}", obs::json_escape(name),
                 bench_record_to_json(record));
    }
    out += "}}";
  }
  out += "\n]}\n";
  return out;
}

void save_trajectory(const std::string& path, const Trajectory& trajectory) {
  sysio::write_file_atomic(path, as_bytes(trajectory_to_json(trajectory)));
}

}  // namespace sciprep::perfscope
