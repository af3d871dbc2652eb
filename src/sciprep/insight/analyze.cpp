#include "sciprep/insight/analyze.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <string_view>

#include "sciprep/common/error.hpp"
#include "sciprep/common/sysio.hpp"
#include "sciprep/obs/json.hpp"

namespace sciprep::insight {

namespace {

// Below this much busy time a stage's numbers are noise: no drift check, no
// dominance — a 2 ms shuffle must not out-rank an idle pipeline.
constexpr double kBusyFloorSeconds = 0.01;

// A consumer that spends less than this fraction of wall waiting on batches
// is not limited by the pipeline at all.
constexpr double kConsumerBoundStallFraction = 0.05;

double hist_sum(const obs::MetricsSnapshot& snap, const char* name) {
  const auto it = snap.histograms.find(name);
  return it != snap.histograms.end() ? it->second.sum : 0.0;
}

std::uint64_t hist_count(const obs::MetricsSnapshot& snap, const char* name) {
  const auto it = snap.histograms.find(name);
  return it != snap.histograms.end() ? it->second.count : 0;
}

}  // namespace

#if defined(SCIPREP_OBS_DISABLED)

BottleneckReport analyze_critical_path(const AnalyzerInput& input) {
  (void)input;
  return {};
}

#else

BottleneckReport analyze_critical_path(const AnalyzerInput& input) {
  const obs::MetricsRegistry& registry =
      input.metrics != nullptr ? *input.metrics : obs::MetricsRegistry::global();
  const obs::Tracer& tracer =
      input.tracer != nullptr ? *input.tracer : obs::Tracer::global();
  const obs::MetricsSnapshot snap = registry.snapshot();

  BottleneckReport report;
  report.wall_seconds = input.wall_seconds;
  report.workers = std::max<std::size_t>(1, input.workers);
  report.scope = input.scope;

  // --- Histogram side: authoritative exclusive busy-seconds per stage. ---
  const double io = hist_sum(snap, "pipeline.stage.io_read_seconds");
  const double gunzip = hist_sum(snap, "pipeline.stage.gunzip_seconds");
  const double backoff = hist_sum(snap, "pipeline.stage.retry_backoff_seconds");
  const double decode_incl = hist_sum(snap, "pipeline.stage.decode_seconds");
  // The decode histogram times the whole recovery loop, so it contains the
  // io.read and gunzip stages and the retry backoff sleeps; subtract them to
  // get the time actually spent decoding bytes into tensors.
  const double decode_excl =
      std::max(0.0, decode_incl - io - gunzip - backoff);

  struct RawStage {
    const char* name;
    const char* histogram;  // source histogram (for events + consumed list)
    double busy;
  };
  const RawStage raw[] = {
      {"io.read", "pipeline.stage.io_read_seconds", io},
      {"gunzip", "pipeline.stage.gunzip_seconds", gunzip},
      {"decode", "pipeline.stage.decode_seconds", decode_excl},
      {"decode.gpu", "pipeline.stage.decode_gpu_seconds",
       hist_sum(snap, "pipeline.stage.decode_gpu_seconds")},
      {"ops", "pipeline.stage.ops_seconds",
       hist_sum(snap, "pipeline.stage.ops_seconds")},
      {"retry.backoff", "pipeline.stage.retry_backoff_seconds", backoff},
      {"shuffle", "pipeline.stage.shuffle_seconds",
       hist_sum(snap, "pipeline.stage.shuffle_seconds")},
  };

  // --- Span side: independent per-stage sums for the cross-check. ---
  double span_io = 0;
  double span_gunzip = 0;
  double span_decode = 0;
  double span_ops = 0;
  const std::uint64_t recorded = tracer.total_recorded();
  report.ring_wrapped = tracer.dropped_total() > 0;
  report.spans_complete = recorded > 0 && !report.ring_wrapped;
  if (report.spans_complete) {
    for (const obs::TraceSpan& span : tracer.snapshot()) {
      const double dur =
          static_cast<double>(span.t_end_ns - span.t_start_ns) / 1e9;
      if (span.name == "pipeline.io_read") {
        span_io += dur;
      } else if (span.name == "pipeline.gunzip") {
        span_gunzip += dur;
      } else if (span.name == "pipeline.decode") {
        span_decode += dur;
      } else if (span.name == "pipeline.ops") {
        span_ops += dur;
      }
    }
  }
  // A decode span covers one decode_guarded attempt (io + gunzip included,
  // backoff not), so its exclusive form subtracts the two nested stages.
  const double span_decode_excl =
      std::max(0.0, span_decode - span_io - span_gunzip);

  const double span_by_stage[] = {span_io, span_gunzip, span_decode_excl,
                                  0 /*decode.gpu*/, span_ops,
                                  0 /*retry.backoff*/, 0 /*shuffle*/};
  const bool span_checked[] = {true, true, true, false, true, false, false};

  // --- Assemble, rank, and cross-check. ---
  const double wall = std::max(input.wall_seconds, 1e-9);
  const double capacity = wall * static_cast<double>(report.workers);
  double pipeline_busy = 0;
  for (std::size_t i = 0; i < std::size(raw); ++i) {
    StageCost stage;
    stage.name = raw[i].name;
    stage.busy_seconds = raw[i].busy;
    stage.events = hist_count(snap, raw[i].histogram);
    stage.span_seconds = span_by_stage[i];
    stage.occupancy = raw[i].busy / capacity;
    pipeline_busy += raw[i].busy;
    if (report.spans_complete && span_checked[i] &&
        raw[i].busy >= kBusyFloorSeconds) {
      const double drift =
          std::fabs(stage.span_seconds - stage.busy_seconds) /
          stage.busy_seconds;
      report.max_drift_fraction = std::max(report.max_drift_fraction, drift);
    }
    report.stages.push_back(std::move(stage));
  }
  // --- sciprep::flow wire attribution (served runs). Histogram names are
  // kept in sync with sciprep/flow/merge.hpp; insight sits below flow in
  // the link order, so the names are spelled out here. ---
  const double wire_c_encode = hist_sum(snap, "flow.client.encode_seconds");
  const double wire_c_wait = hist_sum(snap, "flow.client.wait_seconds");
  const double wire_c_decode = hist_sum(snap, "flow.client.decode_seconds");
  report.wire_attributed = hist_count(snap, "flow.client.wait_seconds") > 0;
  if (report.wire_attributed) {
    double srv_queue = 0;
    double srv_encode = 0;
    double srv_send = 0;
    std::uint64_t srv_events = 0;
    if (input.server_metrics != nullptr) {
      srv_queue =
          hist_sum(*input.server_metrics, "flow.server.queue_wait_seconds");
      srv_encode =
          hist_sum(*input.server_metrics, "flow.server.encode_seconds");
      srv_send = hist_sum(*input.server_metrics, "flow.server.send_seconds");
      srv_events = hist_count(*input.server_metrics,
                              "flow.server.queue_wait_seconds");
    }
    // What remains of the client's blocked time after the server has
    // accounted for its queue-wait, encode, and send: kernel buffering,
    // scheduling, and the bytes actually in flight — the socket itself.
    const double socket =
        std::max(0.0, wire_c_wait - srv_queue - srv_encode - srv_send);
    const struct {
      const char* name;
      const char* histogram;  // client-side source, nullptr for server-side
      double busy;
      std::uint64_t events;
    } wire[] = {
        {"wire.client.encode", "flow.client.encode_seconds", wire_c_encode, 0},
        {"wire.client.decode", "flow.client.decode_seconds", wire_c_decode, 0},
        {"server.queue_wait", nullptr, srv_queue, srv_events},
        {"wire.server.encode", nullptr, srv_encode, srv_events},
        {"wire.server.send", nullptr, srv_send, srv_events},
        {"wire.socket", "flow.client.wait_seconds", socket, 0},
    };
    for (const auto& w : wire) {
      StageCost stage;
      stage.name = w.name;
      stage.busy_seconds = w.busy;
      stage.events = w.histogram != nullptr ? hist_count(snap, w.histogram)
                                            : w.events;
      stage.occupancy = w.busy / capacity;
      report.stages.push_back(std::move(stage));
    }
  }

  std::sort(report.stages.begin(), report.stages.end(),
            [](const StageCost& a, const StageCost& b) {
              return a.busy_seconds > b.busy_seconds;
            });

  // Over the wire the batch-wait lives in flow.client.wait_seconds instead
  // of the local prefetch histogram; the two are disjoint by construction
  // (a consumer either pulls from a local pipeline or from a WireClient).
  report.prefetch_stall_seconds =
      hist_sum(snap, "pipeline.stage.prefetch_wait_seconds") + wire_c_wait;
  report.prefetch_stall_fraction = report.prefetch_stall_seconds / wall;

  // --- What-if speedups: with stage i free, epoch time is bounded below by
  // the consumer's own compute and by the remaining pipeline work spread
  // over the workers (the paper's Fig. 12 stage-removal estimate). Wire and
  // server stages are serial consumer-path time, not worker-parallel work:
  // removing one shortens the wall directly instead of freeing capacity. ---
  const double consumer_compute =
      std::max(0.0, wall - report.prefetch_stall_seconds);
  for (StageCost& stage : report.stages) {
    const bool serial = stage.name.rfind("wire.", 0) == 0 ||
                        stage.name == "server.queue_wait";
    const double bound =
        serial ? std::max(consumer_compute, wall - stage.busy_seconds)
               : std::max(consumer_compute,
                          (pipeline_busy - stage.busy_seconds) /
                              static_cast<double>(report.workers));
    stage.whatif_speedup = std::max(1.0, wall / std::max(bound, 1e-9));
  }

  // --- Verdict. ---
  if (!report.stages.empty() &&
      report.stages.front().busy_seconds >= kBusyFloorSeconds) {
    report.dominant_stage = report.stages.front().name;
  }
  if (report.prefetch_stall_fraction < kConsumerBoundStallFraction) {
    // The consumer almost never waited for a batch: the pipeline keeps up
    // and epoch time is the training step's problem.
    report.verdict = "consumer-bound";
  } else if (report.dominant_stage == "server.queue_wait") {
    report.verdict = "server-queue-bound";
  } else if (report.dominant_stage.rfind("wire.", 0) == 0) {
    report.verdict = "wire-bound";
  } else if (report.dominant_stage == "io.read" ||
             report.dominant_stage == "gunzip" ||
             report.dominant_stage == "retry.backoff") {
    report.verdict = "io-bound";
  } else if (!report.dominant_stage.empty()) {
    report.verdict = "decode-bound";
  } else {
    report.verdict = "idle";
  }

  // --- Instrumentation-drift audit: every pipeline.stage.*_seconds
  // histogram must be one the analyzer consumed. ---
  const char* const known[] = {
      "pipeline.stage.shuffle_seconds",
      "pipeline.stage.decode_seconds",
      "pipeline.stage.io_read_seconds",
      "pipeline.stage.gunzip_seconds",
      "pipeline.stage.ops_seconds",
      "pipeline.stage.batch_assemble_seconds",
      "pipeline.stage.prefetch_wait_seconds",
      "pipeline.stage.decode_gpu_seconds",
      "pipeline.stage.retry_backoff_seconds",
  };
  for (const auto& [name, h] : snap.histograms) {
    constexpr std::string_view kPrefix = "pipeline.stage.";
    if (name.rfind(kPrefix, 0) != 0) continue;
    const bool is_known =
        std::find_if(std::begin(known), std::end(known), [&](const char* k) {
          return name == k;
        }) != std::end(known);
    if (is_known) {
      if (h.count > 0) report.consumed_histograms.push_back(name);
    } else {
      report.unattributed_histograms.push_back(name);
    }
  }
  return report;
}

#endif  // SCIPREP_OBS_DISABLED

std::string BottleneckReport::to_json() const {
  std::string out;
  out.reserve(1024);
  out += fmt(
      "{{\"schema\":\"sciprep.insight.bottleneck.v1\",\"wall_seconds\":{},"
      "\"workers\":{},\"scope\":\"{}\",\"dominant_stage\":\"{}\","
      "\"verdict\":\"{}\","
      "\"prefetch_stall_seconds\":{},\"prefetch_stall_fraction\":{},"
      "\"wire_attributed\":{},"
      "\"spans_complete\":{},\"ring_wrapped\":{},\"max_drift_fraction\":{},"
      "\"stages\":[",
      obs::json_number(wall_seconds), workers, obs::json_escape(scope),
      obs::json_escape(dominant_stage),
      obs::json_escape(verdict), obs::json_number(prefetch_stall_seconds),
      obs::json_number(prefetch_stall_fraction), wire_attributed,
      spans_complete, ring_wrapped,
      obs::json_number(max_drift_fraction));
  bool first = true;
  for (const StageCost& stage : stages) {
    if (!first) out += ',';
    first = false;
    out += fmt(
        "{{\"name\":\"{}\",\"busy_seconds\":{},\"span_seconds\":{},"
        "\"events\":{},\"occupancy\":{},\"whatif_speedup\":{}}}",
        obs::json_escape(stage.name), obs::json_number(stage.busy_seconds),
        obs::json_number(stage.span_seconds), stage.events,
        obs::json_number(stage.occupancy),
        obs::json_number(stage.whatif_speedup));
  }
  out += "],\"consumed_histograms\":[";
  first = true;
  for (const std::string& name : consumed_histograms) {
    if (!first) out += ',';
    first = false;
    out += fmt("\"{}\"", obs::json_escape(name));
  }
  out += "],\"unattributed_histograms\":[";
  first = true;
  for (const std::string& name : unattributed_histograms) {
    if (!first) out += ',';
    first = false;
    out += fmt("\"{}\"", obs::json_escape(name));
  }
  out += "]}";
  return out;
}

std::string BottleneckReport::human_table() const {
  std::string out;
  out += fmt("bottleneck report — wall {:.3f}s, {} workers{}\n", wall_seconds,
             workers, scope.empty() ? std::string() : fmt(", scope {}", scope));
  out += fmt("  verdict: {} (dominant stage: {})\n", verdict,
             dominant_stage.empty() ? "-" : dominant_stage);
  out += fmt("  prefetch stall: {:.3f}s ({:.1f}% of wall)\n",
             prefetch_stall_seconds, prefetch_stall_fraction * 100);
  out += fmt("  {:<16} {:>11} {:>11} {:>9} {:>10} {:>9}\n", "stage", "busy s",
             "span s", "events", "occupancy", "what-if");
  for (const StageCost& stage : stages) {
    out += fmt("  {:<16} {:>11.4f} {:>11.4f} {:>9} {:>9.1f}% {:>8.2f}x\n",
               stage.name, stage.busy_seconds, stage.span_seconds,
               stage.events, stage.occupancy * 100, stage.whatif_speedup);
  }
  if (!spans_complete) {
    out += ring_wrapped
               ? "  (span ring wrapped: span column unverified — size the "
                 "ring up)\n"
               : "  (no spans recorded: span column unverified)\n";
  } else {
    out += fmt("  span-vs-histogram drift: {:.1f}% max\n",
               max_drift_fraction * 100);
  }
  for (const std::string& name : unattributed_histograms) {
    out += fmt("  WARNING: unattributed stage histogram {}\n", name);
  }
  return out;
}

void write_report(const std::string& path, const BottleneckReport& report) {
  sysio::write_file_atomic(path, as_bytes(report.to_json() + "\n"));
}

}  // namespace sciprep::insight
