// sciprep::insight — continuous telemetry export, critical-path bottleneck
// analysis, and incident flight recorder (DESIGN.md §10).
//
// Built on top of sciprep::obs (metrics snapshots, span ring),
// sciprep::fault (recovery events), and sciprep::guard (watchdog expiries):
//
//   * ContinuousExporter (exporter.hpp) — background sampler turning the
//     metrics registry into a fleet.v1 JSONL time-series of totals and
//     deltas and a Prometheus-style text file.
//   * analyze_critical_path (analyze.hpp) — per-stage occupancy, prefetch-
//     stall attribution, Amdahl-style what-if speedups, and a ranked
//     BottleneckReport naming the dominant stage.
//   * FlightRecorder (flightrec.hpp) — crash-safe, rate-limited incident
//     dumps (last-K spans, metrics snapshot, decision log, config
//     fingerprint) on every recovery/guard event.
//
// Under SCIPREP_OBS_DISABLED all three compile to no-ops.
#pragma once

#include "sciprep/insight/analyze.hpp"
#include "sciprep/insight/exporter.hpp"
#include "sciprep/insight/flightrec.hpp"
