// Unit tests for sciprep::flow — clock-offset estimation, the snapshot
// delta algebra, fleet federation, multi-process trace splicing, and the
// end-to-end flow validator.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "sciprep/common/buffer.hpp"
#include "sciprep/common/error.hpp"
#include "sciprep/common/format.hpp"
#include "sciprep/common/rng.hpp"
#include "sciprep/flow/clock.hpp"
#include "sciprep/flow/fleet.hpp"
#include "sciprep/flow/merge.hpp"
#include "sciprep/obs/metrics.hpp"
#include "sciprep/obs/trace.hpp"

namespace {

using namespace sciprep;

// ---------------------------------------------------------------------------
// ClockSyncEstimator

// Simulate an exchange against a remote whose steady clock reads
// local + true_offset, with the given one-way delays.
flow::ClockSample exchange(std::uint64_t t_send_local, std::int64_t true_offset,
                           std::uint64_t delay_out, std::uint64_t delay_back) {
  flow::ClockSample s;
  s.t_send_ns = t_send_local;
  const std::uint64_t t_remote_local = t_send_local + delay_out;
  s.t_remote_ns =
      static_cast<std::uint64_t>(static_cast<std::int64_t>(t_remote_local) +
                                 true_offset);
  s.t_recv_ns = t_remote_local + delay_back;
  return s;
}

TEST(FlowClock, SymmetricExchangeRecoversTheSkewExactly) {
  constexpr std::int64_t kTrueOffset = 7'000'000'123;  // remote is 7s ahead
  flow::ClockSyncEstimator est;
  EXPECT_FALSE(est.estimate().valid);
  est.add_sample(exchange(1'000'000, kTrueOffset, 50'000, 50'000));

  const flow::ClockOffset off = est.estimate();
  ASSERT_TRUE(off.valid);
  EXPECT_EQ(off.offset_ns, kTrueOffset);
  EXPECT_EQ(off.rtt_ns, 100'000u);
  EXPECT_EQ(off.error_bound_ns, 50'000u);
  EXPECT_EQ(off.samples, 1u);

  // local = remote - offset: a remote read maps back onto the local timeline.
  const flow::ClockSample s = exchange(2'000'000, kTrueOffset, 10, 10);
  EXPECT_EQ(flow::remap_remote_ns(s.t_remote_ns, off), 2'000'010u);
}

TEST(FlowClock, MinimumRttSampleWinsOverNoisyOnes) {
  constexpr std::int64_t kTrueOffset = -3'000'000;  // remote started later
  flow::ClockSyncEstimator est;
  // Noisy exchanges: large, asymmetric delays drag the midpoint estimate off.
  est.add_sample(exchange(100'000, kTrueOffset, 900'000, 80'000));
  est.add_sample(exchange(2'000'000, kTrueOffset, 30'000, 700'000));
  const std::int64_t noisy = est.estimate().offset_ns;
  EXPECT_NE(noisy, kTrueOffset);

  // One quiet symmetric exchange beats them all.
  est.add_sample(exchange(4'000'000, kTrueOffset, 4'000, 4'000));
  const flow::ClockOffset off = est.estimate();
  EXPECT_EQ(off.offset_ns, kTrueOffset);
  EXPECT_EQ(off.rtt_ns, 8'000u);
  EXPECT_EQ(off.error_bound_ns, 4'000u);
  EXPECT_EQ(off.samples, 3u);

  // A later, worse sample must not displace the winner.
  est.add_sample(exchange(6'000'000, kTrueOffset, 500'000, 20'000));
  EXPECT_EQ(est.estimate().rtt_ns, 8'000u);
  EXPECT_EQ(est.estimate().samples, 4u);
}

TEST(FlowClock, AsymmetricDelayErrorStaysWithinTheBound) {
  constexpr std::int64_t kTrueOffset = 123'456'789;
  // Worst-case asymmetry: all delay on one leg. The midpoint estimator is
  // then wrong by RTT/2 — exactly the advertised bound, never more.
  for (const auto& [out, back] : {std::pair<std::uint64_t, std::uint64_t>{
                                     200'000, 0},
                                 {0, 200'000},
                                 {150'000, 50'000}}) {
    flow::ClockSyncEstimator est;
    est.add_sample(exchange(1'000'000, kTrueOffset, out, back));
    const flow::ClockOffset off = est.estimate();
    ASSERT_TRUE(off.valid);
    const std::int64_t error = off.offset_ns - kTrueOffset;
    EXPECT_LE(static_cast<std::uint64_t>(error < 0 ? -error : error),
              off.error_bound_ns)
        << "out=" << out << " back=" << back;
  }
}

TEST(FlowClock, NonCausalSamplesAreCountedButNeverSelected) {
  flow::ClockSyncEstimator est;
  flow::ClockSample bogus;
  bogus.t_send_ns = 5'000'000;
  bogus.t_remote_ns = 99;
  bogus.t_recv_ns = 4'000'000;  // t_recv < t_send: hostile or broken peer
  est.add_sample(bogus);
  est.add_sample(bogus);
  EXPECT_EQ(est.samples_seen(), 2u);
  EXPECT_FALSE(est.estimate().valid);

  est.add_sample(exchange(6'000'000, 42, 1'000, 1'000));
  EXPECT_TRUE(est.estimate().valid);
  EXPECT_EQ(est.estimate().offset_ns, 42);
  EXPECT_EQ(est.samples_seen(), 3u);
}

TEST(FlowClock, RemapSaturatesAtZeroAndPreservesMonotonicity) {
  flow::ClockOffset off;
  off.offset_ns = 1'000'000;  // remote epoch predates local by 1ms
  off.valid = true;
  // Remote timestamps before the local epoch clamp instead of wrapping.
  EXPECT_EQ(flow::remap_remote_ns(0, off), 0u);
  EXPECT_EQ(flow::remap_remote_ns(999'999, off), 0u);
  EXPECT_EQ(flow::remap_remote_ns(1'000'001, off), 1u);

  // A monotone remote sequence stays monotone after remap (clamp included).
  std::uint64_t prev = 0;
  for (const std::uint64_t remote :
       {0ull, 500'000ull, 1'000'000ull, 1'500'000ull, 9'000'000ull}) {
    const std::uint64_t local = flow::remap_remote_ns(remote, off);
    EXPECT_GE(local, prev);
    prev = local;
  }
}

// ---------------------------------------------------------------------------
// Snapshot delta algebra

obs::MetricsSnapshot sample_snapshot() {
  obs::MetricsSnapshot s;
  s.counters["pipeline.samples_total"] = 4096;
  s.counters["wire.frames_total"] = 17;
  s.gauges["serve.queue_depth"] = {3, 12};
  s.histograms["flow.client.wait_seconds"] = {64, 0.125};
  s.histograms["stage.decode_seconds"] = {64, 1.5};
  return s;
}

TEST(FlowSnapshot, DeltaThenAccumulateReconstructsTheTotals) {
  obs::MetricsSnapshot t0;  // zero
  obs::MetricsSnapshot t1 = sample_snapshot();
  obs::MetricsSnapshot t2 = t1;
  t2.counters["pipeline.samples_total"] += 512;
  t2.counters["new.counter"] = 7;  // appears only in the second interval
  t2.gauges["serve.queue_depth"] = {1, 20};
  t2.histograms["stage.decode_seconds"].count += 8;
  t2.histograms["stage.decode_seconds"].sum += 0.25;

  const obs::MetricsSnapshot d1 = obs::snapshot_delta(t1, t0);
  const obs::MetricsSnapshot d2 = obs::snapshot_delta(t2, t1);
  EXPECT_EQ(d2.counters.at("pipeline.samples_total"), 512u);
  EXPECT_EQ(d2.counters.at("new.counter"), 7u);
  EXPECT_EQ(d2.histograms.at("stage.decode_seconds").count, 8u);

  obs::MetricsSnapshot acc;
  obs::snapshot_accumulate(acc, d1);
  obs::snapshot_accumulate(acc, d2);
  EXPECT_EQ(acc.counters, t2.counters);
  // Gauges are levels: accumulate keeps last value / max watermark.
  EXPECT_EQ(acc.gauges.at("serve.queue_depth").value, 1);
  EXPECT_EQ(acc.gauges.at("serve.queue_depth").high_watermark, 20);
  EXPECT_EQ(acc.histograms.at("stage.decode_seconds").count,
            t2.histograms.at("stage.decode_seconds").count);
  EXPECT_NEAR(acc.histograms.at("stage.decode_seconds").sum,
              t2.histograms.at("stage.decode_seconds").sum, 1e-12);
}

// ---------------------------------------------------------------------------
// Fleet federation

TEST(FlowFleet, MultiScopeSeriesMergeAndReconcile) {
  // Two scopes, each shipping two delta lines built with the real algebra.
  auto series = [](const std::string& scope, std::uint64_t base) {
    obs::MetricsSnapshot zero;
    obs::MetricsSnapshot t1;
    t1.counters["pipeline.samples_total"] = base;
    t1.histograms["flow.client.wait_seconds"] = {base / 64, 0.5};
    obs::MetricsSnapshot t2 = t1;
    t2.counters["pipeline.samples_total"] += 128;
    std::string text;
    text += obs::fleet_line(scope, 0, 1.0, t1, obs::snapshot_delta(t1, zero));
    text += '\n';
    text += obs::fleet_line(scope, 1, 2.0, t2, obs::snapshot_delta(t2, t1));
    text += '\n';
    return text;
  };

  const flow::FleetMergeResult merged = flow::merge_fleet(
      {{"", series("tenant/a", 1024)}, {"", series("tenant/b", 2048)}});
  EXPECT_EQ(merged.lines_parsed, 4u);
  EXPECT_EQ(merged.lines_skipped, 0u);
  EXPECT_TRUE(merged.reconciled);
  ASSERT_EQ(merged.scopes.size(), 2u);
  EXPECT_EQ(merged.scopes.at("tenant/a").totals.counters.at(
                "pipeline.samples_total"),
            1024u + 128u);
  EXPECT_EQ(merged.scopes.at("tenant/b").totals.counters.at(
                "pipeline.samples_total"),
            2048u + 128u);

  // Prometheus body: one labelled series per scope plus the fleet-wide sum.
  EXPECT_NE(merged.prometheus.find(
                "sciprep_pipeline_samples_total{scope=\"tenant/a\"} 1152"),
            std::string::npos);
  EXPECT_NE(merged.prometheus.find(
                "sciprep_pipeline_samples_total{scope=\"tenant/b\"} 2176"),
            std::string::npos);
  EXPECT_NE(merged.prometheus.find("\nsciprep_pipeline_samples_total 3328\n"),
            std::string::npos);

  // Merged series is itself a valid fleet.v1 input and re-merges cleanly.
  const flow::FleetMergeResult again =
      flow::merge_fleet({{"", merged.merged_jsonl}});
  EXPECT_TRUE(again.reconciled);
  EXPECT_EQ(again.lines_parsed, 4u);

  const std::string summary = merged.summary_json();
  EXPECT_NE(summary.find("\"schema\":\"sciprep.flow.fleetview.v1\""),
            std::string::npos);
  EXPECT_NE(summary.find("\"reconciled\":true"), std::string::npos);
}

TEST(FlowFleet, ScopeHintLabelsExporterStyleLines) {
  // A whole-process insight exporter tick carries an empty scope; the hint
  // names it. The tick's totals double as the delta, so a single line
  // trivially reconciles.
  const std::string tick =
      "{\"schema\":\"sciprep.flow.fleet.v1\",\"scope\":\"\",\"seq\":0,"
      "\"t\":3.5,\"counters\":{\"pipeline.samples_total\":{\"total\":640,"
      "\"delta\":640}},\"gauges\":{},\"histograms\":{}}\n";
  const flow::FleetMergeResult merged = flow::merge_fleet({{"rank0", tick}});
  EXPECT_EQ(merged.lines_parsed, 1u);
  ASSERT_EQ(merged.scopes.count("rank0"), 1u);
  EXPECT_TRUE(merged.reconciled);
  EXPECT_EQ(merged.scopes.at("rank0").totals.counters.at(
                "pipeline.samples_total"),
            640u);

  // No hint and an empty scope in the line -> the "default" bucket.
  const flow::FleetMergeResult unhinted = flow::merge_fleet({{"", tick}});
  EXPECT_EQ(unhinted.scopes.count("default"), 1u);
}

TEST(FlowFleet, CorruptLinesSkipAndALostDeltaBreaksReconciliation) {
  obs::MetricsSnapshot zero;
  obs::MetricsSnapshot t1;
  t1.counters["c"] = 100;
  obs::MetricsSnapshot t2 = t1;
  t2.counters["c"] = 250;

  const std::string l1 =
      obs::fleet_line("tenant/x", 0, 1.0, t1, obs::snapshot_delta(t1, zero));
  const std::string l2 =
      obs::fleet_line("tenant/x", 1, 2.0, t2, obs::snapshot_delta(t2, t1));

  // Garbage and unrelated JSONL streams are skipped, not fatal.
  const std::string with_noise =
      l1 + "\nnot json at all\n{\"schema\":\"other.v1\",\"x\":1}\n" + l2 + "\n";
  const flow::FleetMergeResult ok = flow::merge_fleet({{"", with_noise}});
  EXPECT_EQ(ok.lines_parsed, 2u);
  EXPECT_EQ(ok.lines_skipped, 2u);
  EXPECT_TRUE(ok.reconciled);

  // Losing the first delta line leaves summed deltas (150) short of the
  // declared totals (250): the merge must notice.
  const flow::FleetMergeResult lost = flow::merge_fleet({{"", l2 + "\n"}});
  EXPECT_FALSE(lost.reconciled);
  EXPECT_FALSE(lost.scopes.at("tenant/x").reconciled);

  // Empty input reconciles nothing.
  EXPECT_FALSE(flow::merge_fleet({{"", ""}}).reconciled);
}

// ---------------------------------------------------------------------------
// merge_chrome_json

TEST(FlowMerge, ChromeDocumentCarriesPerProcessTracksOnACommonTimeline) {
  flow::ProcessTrace client;
  client.process_name = "trainer-tenant0";
  client.pid = 101;
  client.thread_names[0] = "consumer";
  obs::TraceSpan batch;
  batch.name = "flow.batch";
  batch.category = "flow";
  batch.t_start_ns = 2'000'000;
  batch.t_end_ns = 5'000'000;
  batch.args_json = "{\"trace_id\":9,\"span_id\":1}";
  client.spans.push_back(batch);

  flow::ProcessTrace server;
  server.process_name = "trainer-server";
  server.pid = 202;
  server.shift_ns = -1'000'000;  // server clock runs 1ms ahead of client
  obs::TraceSpan next;
  next.name = "flow.server.next";
  next.t_start_ns = 3'500'000;  // server timeline -> 2.5ms merged
  next.t_end_ns = 4'500'000;
  server.spans.push_back(next);
  obs::TraceSpan early;  // starts before the client epoch: clamps, no wrap
  early.name = "flow.server.queue_wait";
  early.t_start_ns = 500'000;
  early.t_end_ns = 1'100'000;
  server.spans.push_back(early);

  const std::string doc = flow::merge_chrome_json({client, server});
  // Process metadata with real pids, thread labels, args passthrough.
  EXPECT_NE(doc.find("\"name\":\"process_name\",\"ph\":\"M\",\"pid\":101,"
                     "\"args\":{\"name\":\"trainer-tenant0\"}"),
            std::string::npos);
  EXPECT_NE(doc.find("\"args\":{\"name\":\"trainer-server\"}"),
            std::string::npos);
  EXPECT_NE(doc.find("\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":101,"
                     "\"tid\":0,\"args\":{\"name\":\"consumer\"}"),
            std::string::npos);
  EXPECT_NE(doc.find("\"args\":{\"trace_id\":9,\"span_id\":1}"),
            std::string::npos);
  // The server span lands at ts=2500us on the merged timeline (shift applied,
  // microsecond units), same track as its pid.
  EXPECT_NE(doc.find("\"pid\":202,\"tid\":0,\"ts\":2500,\"dur\":1000"),
            std::string::npos);
  // The straddling span's start clamps to ts=0; only the post-epoch part
  // of its duration survives.
  EXPECT_NE(doc.find("\"ts\":0,\"dur\":100"), std::string::npos);
}

// ---------------------------------------------------------------------------
// validate_flow

struct FlowFixture {
  std::vector<obs::TraceSpan> client;
  std::vector<obs::TraceSpan> server;
  obs::MetricsSnapshot client_metrics;
  obs::MetricsSnapshot server_metrics;
};

obs::TraceSpan make_span(const char* name, std::uint64_t t0_ns,
                         std::uint64_t t1_ns, const std::string& args) {
  obs::TraceSpan s;
  s.name = name;
  s.category = "flow";
  s.t_start_ns = t0_ns;
  s.t_end_ns = t1_ns;
  s.args_json = args;
  return s;
}

// One fully decomposed batch per id: client batch + encode/wait/decode
// children, server next/queue_wait/encode/send, histograms recorded from the
// same intervals.
FlowFixture decomposed_batches(std::uint64_t trace_id, int batches) {
  FlowFixture f;
  auto hist = [](obs::MetricsSnapshot& m, const char* name, double seconds) {
    auto& h = m.histograms[name];
    h.count += 1;
    h.sum += seconds;
  };
  for (int i = 0; i < batches; ++i) {
    const std::uint64_t span_id = 100 + static_cast<std::uint64_t>(i);
    const std::uint64_t base = static_cast<std::uint64_t>(i) * 10'000'000;
    const std::string parent =
        fmt("{{\"trace_id\":{},\"span_id\":{}}}", trace_id, span_id);
    const std::string child =
        fmt("{{\"trace_id\":{},\"parent_span_id\":{}}}", trace_id, span_id);
    f.client.push_back(
        make_span(flow::kClientBatchSpan, base, base + 5'000'000, parent));
    f.client.push_back(make_span(flow::kClientEncodeSpan, base,
                                 base + 1'000'000, child));
    f.client.push_back(make_span(flow::kClientWaitSpan, base + 1'000'000,
                                 base + 4'000'000, child));
    f.client.push_back(make_span(flow::kClientDecodeSpan, base + 4'000'000,
                                 base + 5'000'000, child));
    hist(f.client_metrics, flow::kClientEncodeSeconds, 1e-3);
    hist(f.client_metrics, flow::kClientWaitSeconds, 3e-3);
    hist(f.client_metrics, flow::kClientDecodeSeconds, 1e-3);
    // Server timeline is arbitrary: linkage is by args, not by timestamps.
    const std::uint64_t sbase = 777'000'000 + base;
    f.server.push_back(make_span(flow::kServerNextSpan, sbase,
                                 sbase + 2'000'000, child));
    f.server.push_back(make_span(flow::kServerQueueWaitSpan, sbase,
                                 sbase + 500'000, child));
    f.server.push_back(make_span(flow::kServerEncodeSpan, sbase + 500'000,
                                 sbase + 1'500'000, child));
    f.server.push_back(make_span(flow::kServerSendSpan, sbase + 1'500'000,
                                 sbase + 2'000'000, child));
    // Read-ahead is trace enrichment only; the validator must ignore it.
    f.server.push_back(make_span(flow::kServerReadaheadSpan, sbase,
                                 sbase + 9'000'000, child));
    hist(f.server_metrics, flow::kServerQueueWaitSeconds, 0.5e-3);
    hist(f.server_metrics, flow::kServerEncodeSeconds, 1e-3);
    hist(f.server_metrics, flow::kServerSendSeconds, 0.5e-3);
  }
  return f;
}

TEST(FlowValidate, FullyDecomposedRunValidatesAndCrossChecksHistograms) {
  const FlowFixture f = decomposed_batches(0xAB, 6);
  const flow::FlowValidation v = flow::validate_flow(
      f.client, f.server, f.client_metrics, f.server_metrics);
  EXPECT_EQ(v.client_batches, 6u);
  EXPECT_EQ(v.linked, 6u);
  EXPECT_EQ(v.decomposed, 6u);
  EXPECT_DOUBLE_EQ(v.decomposed_fraction, 1.0);
  EXPECT_NEAR(v.client_span_seconds, 6 * 5e-3, 1e-9);
  EXPECT_NEAR(v.server_span_seconds, 6 * 2e-3, 1e-9);
  EXPECT_TRUE(v.histograms_consistent);
  EXPECT_NE(v.to_json().find("\"schema\":\"sciprep.flow.validation.v1\""),
            std::string::npos);
}

TEST(FlowValidate, MissingServerOrChildSpansDegradeTheCounts) {
  FlowFixture f = decomposed_batches(0xCD, 4);
  // Drop every server span of the last batch -> one batch unlinked.
  const std::string last_child = fmt("{{\"trace_id\":{},\"parent_span_id\":{}}}",
                                     0xCD, 103);
  std::erase_if(f.server, [&](const obs::TraceSpan& s) {
    return s.args_json == last_child;
  });
  // Drop the decode child of the first batch -> linked but not decomposed.
  std::erase_if(f.client, [&](const obs::TraceSpan& s) {
    return s.name == flow::kClientDecodeSpan &&
           s.args_json.find("\"parent_span_id\":100") != std::string::npos;
  });
  const flow::FlowValidation v = flow::validate_flow(
      f.client, f.server, f.client_metrics, f.server_metrics);
  EXPECT_EQ(v.client_batches, 4u);
  EXPECT_EQ(v.linked, 3u);
  EXPECT_EQ(v.decomposed, 2u);
  EXPECT_DOUBLE_EQ(v.decomposed_fraction, 0.5);
}

TEST(FlowValidate, HistogramDivergenceFailsUnlessSpansWereDropped) {
  FlowFixture f = decomposed_batches(0xEF, 3);
  f.server_metrics.histograms[flow::kServerSendSeconds].sum += 0.5;  // lies
  const flow::FlowValidation diverged = flow::validate_flow(
      f.client, f.server, f.client_metrics, f.server_metrics);
  EXPECT_FALSE(diverged.histograms_consistent);

  // A wrapped span ring makes the sums diverge by construction; the check
  // reports consistent rather than blaming instrumentation.
  const flow::FlowValidation wrapped = flow::validate_flow(
      f.client, f.server, f.client_metrics, f.server_metrics,
      /*client_spans_dropped=*/0, /*server_spans_dropped=*/5);
  EXPECT_TRUE(wrapped.histograms_consistent);
}

TEST(FlowValidate, ForeignTenantServerSpansAreExcludedFromTheSums) {
  FlowFixture f = decomposed_batches(0x22, 3);
  // The server's span ring is shared by every tenant it serves: another
  // tenant's spans ride along in the pulled trace, but its time lives in a
  // different per-tenant registry and must not skew this client's check.
  const FlowFixture other = decomposed_batches(0x33, 5);
  f.server.insert(f.server.end(), other.server.begin(), other.server.end());
  const flow::FlowValidation v = flow::validate_flow(
      f.client, f.server, f.client_metrics, f.server_metrics);
  EXPECT_EQ(v.client_batches, 3u);
  EXPECT_EQ(v.decomposed, 3u);
  EXPECT_NEAR(v.server_span_seconds, 3 * 2e-3, 1e-9);
  EXPECT_TRUE(v.histograms_consistent);
}

TEST(FlowValidate, SpansWithoutLinkageArgsAreInvisible) {
  FlowFixture f = decomposed_batches(0x11, 2);
  // Ambient spans with no args (pipeline stages, readahead without ids) and
  // spans whose args carry no trace_id must not affect the accounting.
  f.client.push_back(make_span(flow::kClientBatchSpan, 0, 1'000, ""));
  f.client.push_back(make_span(flow::kClientBatchSpan, 0, 1'000,
                               "{\"batch\":7}"));
  f.server.push_back(make_span(flow::kServerNextSpan, 0, 1'000, ""));
  const flow::FlowValidation v = flow::validate_flow(
      f.client, f.server, f.client_metrics, f.server_metrics);
  EXPECT_EQ(v.client_batches, 2u);
  EXPECT_EQ(v.linked, 2u);
  EXPECT_DOUBLE_EQ(v.decomposed_fraction, 1.0);
  EXPECT_TRUE(v.histograms_consistent);
}

}  // namespace
