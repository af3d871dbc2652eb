#include "sciprep/flow/fleet.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "sciprep/common/format.hpp"
#include "sciprep/obs/json.hpp"

namespace sciprep::flow {

namespace {

bool totals_match(const obs::MetricsSnapshot& accumulated,
                  const obs::MetricsSnapshot& declared) {
  if (accumulated.counters != declared.counters) return false;
  if (accumulated.histograms.size() != declared.histograms.size()) return false;
  for (const auto& [name, h] : declared.histograms) {
    const auto it = accumulated.histograms.find(name);
    if (it == accumulated.histograms.end()) return false;
    if (it->second.count != h.count) return false;
    const double scale = std::max({std::fabs(h.sum), 1.0});
    if (std::fabs(it->second.sum - h.sum) / scale > 1e-9) return false;
  }
  return true;
}

}  // namespace

std::string FleetMergeResult::summary_json() const {
  std::string out;
  out += fmt(
      "{{\"schema\":\"sciprep.flow.fleetview.v1\",\"lines_parsed\":{},"
      "\"lines_skipped\":{},\"reconciled\":{},\"scopes\":{{",
      lines_parsed, lines_skipped, reconciled ? "true" : "false");
  bool first_scope = true;
  for (const auto& [name, scope] : scopes) {
    if (!first_scope) out += ',';
    first_scope = false;
    out += fmt("\"{}\":{{\"lines\":{},\"reconciled\":{},\"counters\":{{",
               obs::json_escape(name), scope.lines,
               scope.reconciled ? "true" : "false");
    bool first = true;
    for (const auto& [cname, value] : scope.totals.counters) {
      if (!first) out += ',';
      first = false;
      out += fmt("\"{}\":{}", obs::json_escape(cname), value);
    }
    out += "}}";
  }
  out += "}}";
  return out;
}

FleetMergeResult merge_fleet(const std::vector<FleetInput>& inputs) {
  FleetMergeResult result;
  std::vector<obs::FleetLine> lines;
  for (const FleetInput& input : inputs) {
    std::size_t pos = 0;
    while (pos < input.text.size()) {
      std::size_t end = input.text.find('\n', pos);
      if (end == std::string::npos) end = input.text.size();
      const std::string_view line(input.text.data() + pos, end - pos);
      pos = end + 1;
      if (line.empty()) continue;
      obs::FleetLine parsed;
      if (!obs::parse_fleet_line(line, parsed)) {
        ++result.lines_skipped;
        continue;
      }
      if (parsed.scope.empty()) parsed.scope = input.scope_hint;
      if (parsed.scope.empty()) parsed.scope = "default";
      ++result.lines_parsed;
      lines.push_back(std::move(parsed));
    }
  }

  // Global series: time-ordered, stable within equal timestamps so each
  // scope's own lines keep their original order.
  std::stable_sort(lines.begin(), lines.end(),
                   [](const obs::FleetLine& a, const obs::FleetLine& b) {
                     return a.t < b.t;
                   });

  std::uint64_t seq = 0;
  for (const obs::FleetLine& line : lines) {
    FleetScope& scope = result.scopes[line.scope];
    ++scope.lines;
    obs::snapshot_accumulate(scope.totals, line.delta);
    scope.declared = line.totals;
    result.merged_jsonl +=
        obs::fleet_line(line.scope, seq++, line.t, line.totals, line.delta);
    result.merged_jsonl += '\n';
  }

  result.reconciled = !result.scopes.empty();
  for (auto& [name, scope] : result.scopes) {
    scope.reconciled = totals_match(scope.totals, scope.declared);
    result.reconciled = result.reconciled && scope.reconciled;
  }

  // Aggregated Prometheus body: one labelled series per scope plus an
  // unlabelled fleet-wide sum.
  std::map<std::string, obs::MetricsSnapshot> totals;
  for (const auto& [name, scope] : result.scopes) totals[name] = scope.totals;
  result.prometheus = obs::prometheus_text(totals);
  return result;
}

}  // namespace sciprep::flow
