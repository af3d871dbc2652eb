// Tests for sciprep::insight — the critical-path analyzer (synthetic stage
// mixes with a known dominant stage, the occupancy-sum property, span-vs-
// histogram drift detection, the unattributed-histogram audit), the
// continuous exporter (tick deltas, final-flush-on-stop, its series merging
// into a reconciled fleet view), and the flight recorder (parseable incident
// dumps, rate limiting with the first-of-kind bypass, the incident cap).
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "sciprep/fault/fault.hpp"
#include "sciprep/flow/fleet.hpp"
#include "sciprep/insight/insight.hpp"
#include "sciprep/obs/json.hpp"
#include "sciprep/obs/metrics.hpp"
#include "sciprep/obs/trace.hpp"

namespace sciprep::insight {
namespace {

/// Fresh per-test scratch directory under gtest's temp root.
std::string scratch_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/insight_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// Record `total` seconds into `hist` as `events` equal samples.
void fill_stage(obs::MetricsRegistry& reg, const char* hist, double total,
                int events = 4) {
  obs::Histogram& h = reg.histogram(hist);
  for (int i = 0; i < events; ++i) {
    h.record(total / events);
  }
}

std::string read_all(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::size_t count_incident_files(const std::string& dir) {
  std::size_t n = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().filename().string().rfind("incident-", 0) == 0) ++n;
  }
  return n;
}

// --- Critical-path analyzer ------------------------------------------------

TEST(Analyze, DecodeDominatedMixRanksDecodeFirst) {
  obs::MetricsRegistry reg;
  obs::Tracer tracer(64);  // empty: spans_complete stays false
  // decode histogram is inclusive of io + gunzip + backoff; the exclusive
  // decode cost the analyzer must report is 1.00 - 0.10 - 0.05 = 0.85 s.
  fill_stage(reg, "pipeline.stage.decode_seconds", 1.00);
  fill_stage(reg, "pipeline.stage.io_read_seconds", 0.10);
  fill_stage(reg, "pipeline.stage.gunzip_seconds", 0.05);
  fill_stage(reg, "pipeline.stage.ops_seconds", 0.20);
  fill_stage(reg, "pipeline.stage.prefetch_wait_seconds", 0.50);

  const BottleneckReport report = analyze_critical_path(
      {.metrics = &reg, .tracer = &tracer, .wall_seconds = 1.0, .workers = 2});

  EXPECT_EQ(report.dominant_stage, "decode");
  EXPECT_EQ(report.verdict, "decode-bound");
  ASSERT_FALSE(report.stages.empty());
  EXPECT_EQ(report.stages.front().name, "decode");
  EXPECT_NEAR(report.stages.front().busy_seconds, 0.85, 1e-9);
  EXPECT_NEAR(report.stages.front().occupancy, 0.85 / 2.0, 1e-9);
  EXPECT_NEAR(report.prefetch_stall_seconds, 0.50, 1e-9);
  EXPECT_FALSE(report.spans_complete);
  // Ranked descending throughout.
  for (std::size_t i = 1; i < report.stages.size(); ++i) {
    EXPECT_GE(report.stages[i - 1].busy_seconds, report.stages[i].busy_seconds);
  }
}

TEST(Analyze, InjectedIoStallsMakeIoReadDominant) {
  obs::MetricsRegistry reg;
  obs::Tracer tracer(64);
  // The injected-stall shape: io.read swallows most of the decode loop
  // (stalled reads charge the io histogram even when a deadline cancels
  // them), and the consumer visibly waits on batches.
  fill_stage(reg, "pipeline.stage.io_read_seconds", 1.20, 16);
  fill_stage(reg, "pipeline.stage.decode_seconds", 1.50, 16);
  fill_stage(reg, "pipeline.stage.retry_backoff_seconds", 0.05, 8);
  fill_stage(reg, "pipeline.stage.ops_seconds", 0.10);
  fill_stage(reg, "pipeline.stage.prefetch_wait_seconds", 0.60);

  const BottleneckReport report = analyze_critical_path(
      {.metrics = &reg, .tracer = &tracer, .wall_seconds = 2.0, .workers = 2});

  EXPECT_EQ(report.dominant_stage, "io.read");
  EXPECT_EQ(report.verdict, "io-bound");
  // Freeing the dominant stage must promise at least as much speedup as
  // freeing any other stage.
  double io_speedup = 0;
  for (const StageCost& stage : report.stages) {
    if (stage.name == "io.read") io_speedup = stage.whatif_speedup;
  }
  for (const StageCost& stage : report.stages) {
    EXPECT_LE(stage.whatif_speedup, io_speedup + 1e-9) << stage.name;
  }
}

TEST(Analyze, TinyPrefetchStallMeansConsumerBound) {
  obs::MetricsRegistry reg;
  obs::Tracer tracer(64);
  fill_stage(reg, "pipeline.stage.decode_seconds", 0.40);
  fill_stage(reg, "pipeline.stage.prefetch_wait_seconds", 0.01);

  const BottleneckReport report = analyze_critical_path(
      {.metrics = &reg, .tracer = &tracer, .wall_seconds = 1.0, .workers = 2});

  // The pipeline kept up: whatever stage dominates internally, epoch time is
  // the training step's problem.
  EXPECT_EQ(report.verdict, "consumer-bound");
}

TEST(Analyze, IdleRegistryProducesIdleVerdict) {
  obs::MetricsRegistry reg;
  obs::Tracer tracer(64);
  const BottleneckReport report = analyze_critical_path(
      {.metrics = &reg, .tracer = &tracer, .wall_seconds = 1.0, .workers = 1});
  EXPECT_TRUE(report.dominant_stage.empty());
  // No prefetch waits recorded → the consumer never stalled → consumer-bound
  // beats idle in the verdict order; idle needs a stall with no busy stage.
  EXPECT_EQ(report.verdict, "consumer-bound");
}

TEST(Analyze, OccupancySumsToAtMostOneAcrossMixes) {
  // Property: exclusive stage occupancies partition worker capacity, so they
  // sum to <= 1 whenever total busy work fits in wall * workers — which any
  // real measurement satisfies. Deterministic pseudo-random mixes.
  std::uint64_t state = 0x9e3779b97f4a7c15ULL;
  auto next_unit = [&state]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return static_cast<double>(state % 1000) / 1000.0;
  };
  for (int trial = 0; trial < 32; ++trial) {
    obs::MetricsRegistry reg;
    obs::Tracer tracer(16);
    const double io = next_unit();
    const double gunzip = next_unit();
    const double backoff = next_unit();
    const double decode_extra = next_unit();
    const double ops = next_unit();
    const double shuffle = next_unit();
    fill_stage(reg, "pipeline.stage.io_read_seconds", io);
    fill_stage(reg, "pipeline.stage.gunzip_seconds", gunzip);
    fill_stage(reg, "pipeline.stage.retry_backoff_seconds", backoff);
    fill_stage(reg, "pipeline.stage.decode_seconds",
               io + gunzip + backoff + decode_extra);
    fill_stage(reg, "pipeline.stage.ops_seconds", ops);
    fill_stage(reg, "pipeline.stage.shuffle_seconds", shuffle);

    const std::size_t workers = 1 + trial % 4;
    // Wall large enough that capacity covers the recorded busy time.
    const double busy =
        io + gunzip + backoff + decode_extra + ops + shuffle;
    const double wall = busy / static_cast<double>(workers) + next_unit();

    const BottleneckReport report = analyze_critical_path(
        {.metrics = &reg, .tracer = &tracer, .wall_seconds = wall,
         .workers = workers});
    double occupancy_sum = 0;
    for (const StageCost& stage : report.stages) {
      EXPECT_GE(stage.occupancy, 0.0) << stage.name;
      EXPECT_GE(stage.whatif_speedup, 1.0) << stage.name;
      occupancy_sum += stage.occupancy;
    }
    EXPECT_LE(occupancy_sum, 1.0 + 1e-9) << "trial " << trial;
  }
}

TEST(Analyze, SpanHistogramDriftIsMeasured) {
  obs::MetricsRegistry reg;
  fill_stage(reg, "pipeline.stage.io_read_seconds", 0.50);
  fill_stage(reg, "pipeline.stage.decode_seconds", 0.50);

  // Spans only account for half the histogram's io time → 50% drift: the
  // shape instrumentation drift (one layer updated, not the other) takes.
  obs::Tracer tracer(64);
  tracer.record("pipeline.io_read", "pipeline", 0, 250'000'000);
  const BottleneckReport report = analyze_critical_path(
      {.metrics = &reg, .tracer = &tracer, .wall_seconds = 1.0, .workers = 1});
  EXPECT_TRUE(report.spans_complete);
  EXPECT_NEAR(report.max_drift_fraction, 0.5, 1e-6);

  // A matching span sum reports (near) zero drift.
  obs::Tracer agreed(64);
  agreed.record("pipeline.io_read", "pipeline", 0, 500'000'000);
  const BottleneckReport clean = analyze_critical_path(
      {.metrics = &reg, .tracer = &agreed, .wall_seconds = 1.0, .workers = 1});
  EXPECT_NEAR(clean.max_drift_fraction, 0.0, 1e-6);
}

TEST(Analyze, UnknownStageHistogramIsFlaggedUnattributed) {
  obs::MetricsRegistry reg;
  obs::Tracer tracer(16);
  fill_stage(reg, "pipeline.stage.decode_seconds", 0.10);
  fill_stage(reg, "pipeline.stage.mystery_seconds", 0.10);

  const BottleneckReport report = analyze_critical_path(
      {.metrics = &reg, .tracer = &tracer, .wall_seconds = 1.0, .workers = 1});
  ASSERT_EQ(report.unattributed_histograms.size(), 1u);
  EXPECT_EQ(report.unattributed_histograms[0], "pipeline.stage.mystery_seconds");
  EXPECT_NE(report.human_table().find("pipeline.stage.mystery_seconds"),
            std::string::npos);
}

TEST(Analyze, ReportJsonIsValidAndRoundTrippable) {
  obs::MetricsRegistry reg;
  obs::Tracer tracer(16);
  fill_stage(reg, "pipeline.stage.decode_seconds", 0.30);
  fill_stage(reg, "pipeline.stage.prefetch_wait_seconds", 0.20);
  const BottleneckReport report = analyze_critical_path(
      {.metrics = &reg, .tracer = &tracer, .wall_seconds = 1.0, .workers = 2});

  const std::string json = report.to_json();
  EXPECT_TRUE(obs::json_valid(json)) << json;
  EXPECT_NE(json.find("\"schema\":\"sciprep.insight.bottleneck.v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"dominant_stage\":\"decode\""), std::string::npos);

  const std::string dir = scratch_dir("report");
  write_report(dir + "/report.json", report);
  EXPECT_EQ(read_all(dir + "/report.json"), json + "\n");
}

// --- Continuous exporter ---------------------------------------------------

TEST(Exporter, ManualTicksCarryDeltasAndRates) {
  const std::string dir = scratch_dir("exporter_manual");
  obs::MetricsRegistry reg;
  reg.counter("work.items_total").add(10);
  reg.histogram("work.latency_seconds").record(0.5);

  ExporterConfig cfg;
  cfg.jsonl_path = dir + "/series.jsonl";
  cfg.prom_path = dir + "/metrics.prom";
  cfg.metrics = &reg;
  ContinuousExporter exporter(cfg);

  // Manual driving establishes the baseline at the first tick: history from
  // before the exporter existed reports as totals, not as a delta spike.
  exporter.tick();
  reg.counter("work.items_total").add(5);
  reg.histogram("work.latency_seconds").record(0.25);
  exporter.tick();
  EXPECT_EQ(exporter.ticks_total(), 2u);

  std::ifstream in(cfg.jsonl_path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 2u);
  for (const std::string& line : lines) {
    EXPECT_TRUE(obs::json_valid(line)) << line;
  }
  EXPECT_NE(lines[0].find("\"work.items_total\":{\"total\":10,\"delta\":0"),
            std::string::npos)
      << lines[0];
  EXPECT_NE(lines[1].find("\"work.items_total\":{\"total\":15,\"delta\":5"),
            std::string::npos)
      << lines[1];
  EXPECT_NE(lines[1].find("\"count_delta\":1"), std::string::npos) << lines[1];
  // Rates are derived by readers: the second tick carries the delta and a
  // later timestamp than the first.
  obs::FleetLine first;
  obs::FleetLine second;
  ASSERT_TRUE(obs::parse_fleet_line(lines[0], first)) << lines[0];
  ASSERT_TRUE(obs::parse_fleet_line(lines[1], second)) << lines[1];
  EXPECT_EQ(second.delta.counters.at("work.items_total"), 5u);
  EXPECT_GT(second.t, first.t);

  const std::string prom = read_all(cfg.prom_path);
  EXPECT_NE(prom.find("# TYPE sciprep_work_items_total counter"),
            std::string::npos);
  EXPECT_NE(prom.find("sciprep_work_items_total 15"), std::string::npos);
  EXPECT_NE(prom.find("sciprep_work_latency_seconds_count 2"),
            std::string::npos);
}

TEST(Exporter, StopFlushesTheFinalPartialInterval) {
  const std::string dir = scratch_dir("exporter_stop");
  obs::MetricsRegistry reg;
  ExporterConfig cfg;
  cfg.interval_seconds = 60;  // the thread alone would never tick
  cfg.jsonl_path = dir + "/series.jsonl";
  cfg.metrics = &reg;
  ContinuousExporter exporter(cfg);
  exporter.start();
  reg.counter("work.items_total").add(7);
  exporter.stop();

  // Exactly the closing tick — and it carries the increment.
  EXPECT_EQ(exporter.ticks_total(), 1u);
  const std::string series = read_all(cfg.jsonl_path);
  EXPECT_NE(series.find("\"work.items_total\":{\"total\":7,\"delta\":7"),
            std::string::npos)
      << series;
  exporter.stop();  // idempotent
  EXPECT_EQ(exporter.ticks_total(), 1u);
}

TEST(Exporter, SeriesMergesIntoAReconciledFleetView) {
  const std::string dir = scratch_dir("exporter_fleet");
  obs::MetricsRegistry reg;
  ExporterConfig cfg;
  cfg.jsonl_path = dir + "/series.jsonl";
  cfg.prom_path = dir + "/metrics.prom";
  cfg.metrics = &reg;
  ContinuousExporter exporter(cfg);

  // Baseline on the empty registry, so the summed deltas cover everything.
  exporter.tick();
  reg.counter("work.items_total").add(10);
  reg.histogram("work.latency_seconds").record(0.5);
  exporter.tick();
  reg.counter("work.items_total").add(5);
  reg.histogram("work.latency_seconds").record(0.25);
  exporter.tick();

  const flow::FleetMergeResult merged =
      flow::merge_fleet({{"", read_all(cfg.jsonl_path)}});
  EXPECT_EQ(merged.lines_parsed, 3u);
  EXPECT_EQ(merged.lines_skipped, 0u);
  ASSERT_EQ(merged.scopes.count("default"), 1u);
  EXPECT_TRUE(merged.reconciled);

  // The exporter's unlabelled totals survive the merge.
  EXPECT_NE(merged.prometheus.find("\nsciprep_work_items_total 15\n"),
            std::string::npos)
      << merged.prometheus;
  EXPECT_NE(merged.prometheus.find("\nsciprep_work_latency_seconds_count 2\n"),
            std::string::npos)
      << merged.prometheus;
  std::istringstream prom(read_all(cfg.prom_path));
  for (std::string line; std::getline(prom, line);) {
    EXPECT_NE(merged.prometheus.find(line + "\n"), std::string::npos) << line;
  }
}

// --- Flight recorder -------------------------------------------------------

fault::RecoveryEvent make_event(fault::EventKind kind) {
  fault::RecoveryEvent event;
  event.kind = kind;
  event.stage = "io.read";
  event.detail = "synthetic \"quoted\" detail";
  event.sample_index = 42;
  event.attempt = 2;
  return event;
}

TEST(FlightRecorder, DumpsAParseableIncidentWithContext) {
  const std::string dir = scratch_dir("flightrec_dump");
  obs::MetricsRegistry reg;
  reg.counter("pipeline.retries_total").add(3);
  obs::Tracer tracer(64);
  tracer.record("pipeline.decode", "pipeline", 1000, 2000);

  FlightRecorderConfig cfg;
  cfg.dir = dir;
  cfg.metrics = &reg;
  cfg.tracer = &tracer;
  cfg.config_fingerprint = 0xabcdef12u;
  FlightRecorder recorder(cfg);
  recorder.record_incident(make_event(fault::EventKind::kRetry));

  EXPECT_EQ(recorder.incidents_written(), 1u);
  EXPECT_EQ(recorder.incidents_suppressed(), 0u);
  const std::string body = read_all(dir + "/incident-0-retry.json");
  EXPECT_TRUE(obs::json_valid(body)) << body;
  EXPECT_NE(body.find("\"schema\":\"sciprep.insight.incident.v1\""),
            std::string::npos);
  EXPECT_NE(body.find("\"kind\":\"retry\""), std::string::npos);
  EXPECT_NE(body.find("\"stage\":\"io.read\""), std::string::npos);
  EXPECT_NE(body.find("\"config_fingerprint\":\"abcdef12\""),
            std::string::npos);
  EXPECT_NE(body.find("\"name\":\"pipeline.decode\""), std::string::npos);
  EXPECT_NE(body.find("\"pipeline.retries_total\":3"), std::string::npos);
}

TEST(FlightRecorder, IntervalLimitSuppressesRepeatsButNotNewKinds) {
  const std::string dir = scratch_dir("flightrec_rate");
  obs::MetricsRegistry reg;
  obs::Tracer tracer(16);
  FlightRecorderConfig cfg;
  cfg.dir = dir;
  cfg.metrics = &reg;
  cfg.tracer = &tracer;
  cfg.min_interval_seconds = 3600;  // nothing re-dumps inside the test
  FlightRecorder recorder(cfg);

  for (int i = 0; i < 5; ++i) {
    recorder.record_incident(make_event(fault::EventKind::kRetry));
  }
  EXPECT_EQ(recorder.incidents_written(), 1u);
  EXPECT_EQ(recorder.incidents_suppressed(), 4u);

  // A kind not yet dumped bypasses the interval: the rare deadline expiry
  // arriving mid-retry-storm still produces its incident file.
  recorder.record_incident(make_event(fault::EventKind::kDeadlineExpired));
  EXPECT_EQ(recorder.incidents_written(), 2u);
  EXPECT_EQ(count_incident_files(dir), 2u);
  const std::string body =
      read_all(dir + "/incident-1-deadline_expired.json");
  EXPECT_TRUE(obs::json_valid(body)) << body;
  // The suppressed repeats still made the decision log of the later dump.
  EXPECT_NE(body.find("\"kind\":\"retry\""), std::string::npos);
}

TEST(FlightRecorder, IncidentCapIsAbsolute) {
  const std::string dir = scratch_dir("flightrec_cap");
  obs::MetricsRegistry reg;
  obs::Tracer tracer(16);
  FlightRecorderConfig cfg;
  cfg.dir = dir;
  cfg.metrics = &reg;
  cfg.tracer = &tracer;
  cfg.min_interval_seconds = 0;  // only the cap limits
  cfg.max_incidents = 2;
  FlightRecorder recorder(cfg);

  recorder.record_incident(make_event(fault::EventKind::kRetry));
  recorder.record_incident(make_event(fault::EventKind::kSkipSample));
  // Even a first-of-kind event cannot pass the cap.
  recorder.record_incident(make_event(fault::EventKind::kDeadlineExpired));
  EXPECT_EQ(recorder.incidents_written(), 2u);
  EXPECT_EQ(recorder.incidents_suppressed(), 1u);
  EXPECT_EQ(count_incident_files(dir), 2u);
}

TEST(FlightRecorder, ListenerFeedsRecordIncident) {
  const std::string dir = scratch_dir("flightrec_listener");
  obs::MetricsRegistry reg;
  obs::Tracer tracer(16);
  FlightRecorderConfig cfg;
  cfg.dir = dir;
  cfg.metrics = &reg;
  cfg.tracer = &tracer;
  FlightRecorder recorder(cfg);

  const fault::RecoveryListener listener = recorder.listener();
  ASSERT_TRUE(static_cast<bool>(listener));
  listener(make_event(fault::EventKind::kFallback));
  EXPECT_EQ(recorder.incidents_written(), 1u);
  EXPECT_EQ(count_incident_files(dir), 1u);
}

fault::RecoveryEvent make_scoped_event(fault::EventKind kind,
                                       const std::string& scope) {
  fault::RecoveryEvent event = make_event(kind);
  event.scope = scope;
  return event;
}

// Satellite: rate limits are per scope. One tenant's incident storm spends
// only that tenant's interval window and cap — another tenant's first
// incident of the same kind still produces its file, attributed to its own
// scope.
TEST(FlightRecorder, TenantStormDoesNotSuppressAnotherTenantsFirstIncident) {
  const std::string dir = scratch_dir("flightrec_scopes");
  obs::MetricsRegistry reg;
  obs::Tracer tracer(16);
  FlightRecorderConfig cfg;
  cfg.dir = dir;
  cfg.metrics = &reg;
  cfg.tracer = &tracer;
  cfg.min_interval_seconds = 3600;  // nothing re-dumps inside the test
  FlightRecorder recorder(cfg);

  for (int i = 0; i < 8; ++i) {
    recorder.record_incident(
        make_scoped_event(fault::EventKind::kRetry, "tenant0"));
  }
  EXPECT_EQ(recorder.incidents_written(), 1u);
  EXPECT_EQ(recorder.incidents_suppressed(), 7u);

  // Same kind, different scope: tenant1's first retry is not a repeat of
  // tenant0's — it dumps, and the file names its scope.
  recorder.record_incident(
      make_scoped_event(fault::EventKind::kRetry, "tenant1"));
  EXPECT_EQ(recorder.incidents_written(), 2u);
  EXPECT_EQ(count_incident_files(dir), 2u);
  const std::string body = read_all(dir + "/incident-1-retry.json");
  EXPECT_TRUE(obs::json_valid(body)) << body;
  EXPECT_NE(body.find("\"scope\":\"tenant1\""), std::string::npos) << body;

  // And the per-scope cap is per scope too: tenant1's next *new* kind dumps
  // even though tenant0 already spent several suppressions.
  recorder.record_incident(
      make_scoped_event(fault::EventKind::kDeadlineExpired, "tenant1"));
  EXPECT_EQ(recorder.incidents_written(), 3u);
}

// Satellite: the global backstop bounds the file count across all scopes —
// a service with many tenants cannot scale incident files with tenant count
// past max_total_incidents, even though each tenant is under its own cap.
TEST(FlightRecorder, TotalIncidentBackstopBoundsAcrossScopes) {
  const std::string dir = scratch_dir("flightrec_total");
  obs::MetricsRegistry reg;
  obs::Tracer tracer(16);
  FlightRecorderConfig cfg;
  cfg.dir = dir;
  cfg.metrics = &reg;
  cfg.tracer = &tracer;
  cfg.min_interval_seconds = 0;
  cfg.max_incidents = 2;        // per scope
  cfg.max_total_incidents = 3;  // global backstop
  FlightRecorder recorder(cfg);

  recorder.record_incident(make_scoped_event(fault::EventKind::kRetry, "a"));
  recorder.record_incident(
      make_scoped_event(fault::EventKind::kSkipSample, "a"));
  recorder.record_incident(make_scoped_event(fault::EventKind::kRetry, "b"));
  // Scope "b" still has per-scope headroom, but the backstop is spent.
  recorder.record_incident(
      make_scoped_event(fault::EventKind::kSkipSample, "b"));
  recorder.record_incident(make_scoped_event(fault::EventKind::kRetry, "c"));
  EXPECT_EQ(recorder.incidents_written(), 3u);
  EXPECT_EQ(recorder.incidents_suppressed(), 2u);
  EXPECT_EQ(count_incident_files(dir), 3u);
}

// Satellite: a per-tenant bottleneck report carries its scope into the JSON,
// so serve-mode reports stay attributable after they are written out.
TEST(Analyze, ReportCarriesTheTenantScope) {
  obs::MetricsRegistry reg;
  reg.histogram("pipeline.stage.decode_seconds").record(0.5);
  const BottleneckReport report = analyze_critical_path(
      {.metrics = &reg, .scope = "tenant3", .wall_seconds = 1.0, .workers = 2});
  EXPECT_EQ(report.scope, "tenant3");
  const std::string json = report.to_json();
  EXPECT_TRUE(obs::json_valid(json)) << json;
  EXPECT_NE(json.find("\"scope\":\"tenant3\""), std::string::npos) << json;
}

}  // namespace
}  // namespace sciprep::insight
