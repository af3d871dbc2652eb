// Fleet-level telemetry federation.
//
// A served fleet produces one metrics time-series per scope — a wire client
// appending the per-tenant snapshot deltas it pulls from the server, or a
// rank's insight exporter JSONL; both are `sciprep.flow.fleet.v1` lines
// (obs::fleet_line). merge_fleet() ingests N such series, orders the global
// series by timestamp, accumulates running totals per scope, and emits an
// aggregated Prometheus text body (obs::prometheus_text) with a
// {scope="..."} label per source plus an unlabelled fleet-wide sum.
//
// Reconciled means the sum of a scope's deltas equals its last declared
// totals — i.e. the merged view equals the per-tenant registry it came
// from, with no line lost.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sciprep/obs/metrics.hpp"

namespace sciprep::flow {

/// One input series: the full text of a fleet.v1 JSONL file. `scope_hint`
/// names lines whose scope is empty (a whole-process exporter series);
/// with no hint either, they land in the "default" scope.
struct FleetInput {
  std::string scope_hint;
  std::string text;
};

struct FleetScope {
  obs::MetricsSnapshot totals;    // accumulated from the scope's deltas
  obs::MetricsSnapshot declared;  // last line's declared cumulative totals
  std::uint64_t lines = 0;
  bool reconciled = false;        // totals == declared
};

struct FleetMergeResult {
  std::map<std::string, FleetScope> scopes;
  std::string merged_jsonl;  // global fleet.v1 series, time-ordered
  std::string prometheus;    // per-scope labelled + fleet-aggregate text
  std::uint64_t lines_parsed = 0;
  std::uint64_t lines_skipped = 0;  // unparseable or non-fleet.v1 lines
  bool reconciled = false;          // every scope reconciled

  [[nodiscard]] std::string summary_json() const;
};

[[nodiscard]] FleetMergeResult merge_fleet(
    const std::vector<FleetInput>& inputs);

}  // namespace sciprep::flow
