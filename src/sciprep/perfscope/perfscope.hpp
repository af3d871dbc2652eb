// sciprep::perfscope — machine-readable benchmark telemetry, host resource
// sampling, and a noise-aware perf-regression gate (DESIGN.md §11).
//
//   * BenchReporter (benchreport.hpp) — schema-versioned
//     sciprep.perf.bench.v1 records every bench binary emits via --json-out:
//     metrics tagged measured/modeled and better=higher/lower, wall vs
//     sim-charged seconds kept separate, per-stage busy seconds from the
//     insight analyzer, p50/p99 latencies, host info, resource summary.
//   * ResourceSampler (resource.hpp) — /proc/self/{stat,status,io} +
//     getrusage readings published as proc.* gauges on the insight
//     exporter's cadence; no-op under SCIPREP_OBS_DISABLED.
//   * Trajectory (trajectory.hpp) — the BENCH_*.json run history perfbench
//     appends to.
//   * compare_* (compare.hpp) — the median+MAD regression gate behind
//     perfcompare and the perf_regression_smoke ctest.
#pragma once

#include "sciprep/perfscope/benchreport.hpp"
#include "sciprep/perfscope/compare.hpp"
#include "sciprep/perfscope/resource.hpp"
#include "sciprep/perfscope/trajectory.hpp"
