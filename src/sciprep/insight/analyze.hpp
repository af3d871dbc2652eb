// Critical-path bottleneck analyzer (sciprep::insight).
//
// Turns the raw telemetry the pipeline already produces — the span ring and
// the pipeline.stage.* latency histograms — into the paper's Fig. 12-style
// verdict: how much wall time each stage burned, which stage dominates, and
// an Amdahl-style estimate of the end-to-end speedup if a stage were free.
//
// Two independent sources are reconciled:
//
//   * Histograms are the authoritative busy-seconds accounting (they survive
//     ring wrap and record on exception unwind). Exclusive stage costs are
//     derived by subtraction: the decode histogram covers io.read, gunzip,
//     and retry backoff, so "decode" in the report is decode minus those.
//   * Spans give an independent per-stage sum. When the span ring did not
//     wrap, the two are cross-checked and the report carries the maximum
//     relative drift — a drifting stage means instrumentation was added to
//     one layer but not the other.
//
// The report also lists every pipeline.stage.*_seconds histogram it did NOT
// recognise (`unattributed_histograms`): a stage added to the pipeline
// without teaching the analyzer shows up there, and `trainer --validate`
// fails on it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sciprep/obs/metrics.hpp"
#include "sciprep/obs/trace.hpp"

namespace sciprep::insight {

/// One stage's share of the pipeline's busy time.
struct StageCost {
  std::string name;         // "io.read", "gunzip", "decode", "ops", ...
  double busy_seconds = 0;  // histogram-derived, exclusive (authoritative)
  double span_seconds = 0;  // span-derived exclusive sum (0 when unavailable)
  std::uint64_t events = 0;  // histogram sample count
  /// busy_seconds / (workers * wall): the fraction of total worker capacity
  /// this stage consumed. Fractions over a report sum to <= 1 (+epsilon).
  double occupancy = 0;
  /// Estimated end-to-end speedup if this stage cost nothing (>= 1).
  double whatif_speedup = 1;
};

struct BottleneckReport {
  double wall_seconds = 0;
  std::size_t workers = 1;
  /// Which scope of a multi-pipeline run this report describes — a tenant
  /// name or "rank<N>" when the input registry was that scope's private
  /// registry, "" (the default) for a whole-process report. Mirrors
  /// fault::RecoveryEvent::scope and is carried into the JSON.
  std::string scope;

  /// The stage with the largest exclusive busy time.
  std::string dominant_stage;
  /// "io-bound", "decode-bound", or "consumer-bound" — whether epoch time is
  /// limited by the pipeline (and which side of it) or by the training step.
  /// Served runs (sciprep::flow attribution present) extend the taxonomy
  /// with "wire-bound" (transport encode/socket/decode dominates) and
  /// "server-queue-bound" (waiting on the server to produce dominates).
  std::string verdict;

  double prefetch_stall_seconds = 0;   // consumer-visible batch-wait time
  double prefetch_stall_fraction = 0;  // of wall_seconds
  /// True when flow.client.* wire-attribution histograms were found (the
  /// run consumed batches over sciprep::wire with trace propagation on).
  bool wire_attributed = false;

  /// True when the span ring held every recorded span (no wrap, no drops);
  /// only then is the span-vs-histogram drift check meaningful.
  bool spans_complete = false;
  /// True when the tracer dropped spans (ring wrap). Distinguishes "the
  /// drift cross-check was skipped because the ring overflowed" (size the
  /// ring up) from "no spans were recorded at all" (tracing off) — both of
  /// which leave spans_complete false.
  bool ring_wrapped = false;
  /// Max relative |span - histogram| / histogram across checked stages
  /// (0 when spans_complete is false or every stage is below the floor).
  double max_drift_fraction = 0;

  std::vector<StageCost> stages;  // ranked by busy_seconds, descending

  /// pipeline.stage.*_seconds histograms the analyzer consumed.
  std::vector<std::string> consumed_histograms;
  /// pipeline.stage.*_seconds histograms it does not know — instrumentation
  /// drift; --validate fails when this is non-empty.
  std::vector<std::string> unattributed_histograms;

  [[nodiscard]] std::string to_json() const;
  [[nodiscard]] std::string human_table() const;
};

struct AnalyzerInput {
  /// Registry holding the pipeline.stage.* histograms; null means the
  /// process-global registry. Pass a rank's or tenant's private registry
  /// (with `scope` set) for a per-scope report.
  const obs::MetricsRegistry* metrics = nullptr;
  /// Scope label stamped into the report (see BottleneckReport::scope).
  std::string scope{};
  /// Span source for the cross-check; null means Tracer::global().
  const obs::Tracer* tracer = nullptr;
  /// sciprep::flow — the server-side tenant MetricsSnapshot pulled over the
  /// wire (WireClient::server_totals()), or null for a local run. Splits the
  /// client's batch-wait into server queue-wait / server encode / server
  /// send / socket residual, so the verdict can tell a slow producer from a
  /// slow transport.
  const obs::MetricsSnapshot* server_metrics = nullptr;
  /// End-to-end wall time of the analyzed run (epoch loop), in seconds.
  double wall_seconds = 0;
  /// Decode worker count (PipelineConfig::worker_threads).
  std::size_t workers = 1;
};

/// Build the report. Pure read: consumes snapshots, mutates nothing.
[[nodiscard]] BottleneckReport analyze_critical_path(const AnalyzerInput& input);

/// Write report.to_json() to `path` atomically; throws IoError on failure.
void write_report(const std::string& path, const BottleneckReport& report);

}  // namespace sciprep::insight
