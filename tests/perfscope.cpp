// sciprep::perfscope unit tests (ctest -L perf): bench-record
// serialization roundtrips, host resource sampling invariants,
// trajectory persistence, and the noise-aware comparison verdicts.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "sciprep/obs/json.hpp"
#include "sciprep/perfscope/perfscope.hpp"

namespace {

using namespace sciprep;
using namespace sciprep::perfscope;

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() /
          ("sciprep_perfscope_test_" + name))
      .string();
}

// ----------------------------------------------------------- bench record --

BenchReporter make_reporter() {
  BenchReporter reporter("unit_bench");
  reporter.set_config("dim=16 repeat=2");
  reporter.add_metric("samples_per_s", 1234.5, "samples/s", "modeled");
  reporter.add_metric("decode_seconds", 0.25, "seconds", "measured",
                      /*better_higher=*/false, /*noise_floor=*/0.01);
  reporter.charge_sim_seconds(3.5);
  reporter.add_latency("decode", 1e-4, 5e-4);
  return reporter;
}

TEST(BenchReport, EmitsValidSchemaTaggedJson) {
  const std::string json = make_reporter().to_json();
  EXPECT_TRUE(obs::json_valid(json)) << json;
  EXPECT_NE(json.find("\"schema\":\"sciprep.perf.bench.v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"host\":"), std::string::npos);
  EXPECT_NE(json.find("\"config_fingerprint\""), std::string::npos);
}

TEST(BenchReport, RoundTripsThroughTheDom) {
  const BenchReporter reporter = make_reporter();
  obs::JsonValue doc;
  ASSERT_TRUE(obs::json_parse(reporter.to_json(), doc));
  BenchRecord parsed;
  ASSERT_TRUE(bench_record_from_json(doc, parsed));

  EXPECT_EQ(parsed.bench, "unit_bench");
  EXPECT_EQ(parsed.config, "dim=16 repeat=2");
  EXPECT_FALSE(parsed.config_fingerprint.empty());
  EXPECT_DOUBLE_EQ(parsed.sim_charged_seconds, 3.5);
  ASSERT_EQ(parsed.metrics.size(), 2u);
  const BenchMetric* decode = parsed.find_metric("decode_seconds");
  ASSERT_NE(decode, nullptr);
  EXPECT_DOUBLE_EQ(decode->value, 0.25);
  EXPECT_EQ(decode->unit, "seconds");
  EXPECT_EQ(decode->kind, "measured");
  EXPECT_FALSE(decode->better_higher);
  EXPECT_DOUBLE_EQ(decode->noise_floor, 0.01);
  ASSERT_EQ(parsed.latencies.count("decode"), 1u);
  EXPECT_DOUBLE_EQ(parsed.latencies.at("decode").p50_seconds, 1e-4);
  EXPECT_DOUBLE_EQ(parsed.latencies.at("decode").p99_seconds, 5e-4);
}

TEST(BenchReport, FromJsonRejectsWrongSchema) {
  obs::JsonValue doc;
  ASSERT_TRUE(
      obs::json_parse(R"({"schema":"something.else.v9","bench":"x"})", doc));
  BenchRecord parsed;
  EXPECT_FALSE(bench_record_from_json(doc, parsed));
}

TEST(BenchReport, WallAndSimSecondsStaySeparate) {
  BenchReporter reporter("timing");
  reporter.charge_sim_seconds(100.0);  // modeled time, not harness time
  const BenchRecord record = reporter.snapshot();
  EXPECT_DOUBLE_EQ(record.sim_charged_seconds, 100.0);
  EXPECT_LT(record.wall_seconds, 10.0);  // the snapshot itself is instant
  EXPECT_GE(record.wall_seconds, 0.0);
}

// ------------------------------------------------------- resource sampler --

#if !defined(SCIPREP_OBS_DISABLED)

TEST(ResourceSampler, PeakRssNeverBelowCurrent) {
  const ResourceSample s = ResourceSampler::sample();
  ASSERT_TRUE(s.ok);
  EXPECT_GT(s.rss_bytes, 0u);
  EXPECT_GE(s.peak_rss_bytes, s.rss_bytes);
  EXPECT_GE(s.threads, 1u);
}

TEST(ResourceSampler, CumulativeCountersAreMonotone) {
  const ResourceSample a = ResourceSampler::sample();
  // Burn a little CPU so the utime clock visibly advances between readings.
  volatile double sink = 0;
  for (int i = 0; i < 2000000; ++i) sink += static_cast<double>(i) * 1e-9;
  const ResourceSample b = ResourceSampler::sample();
  ASSERT_TRUE(a.ok);
  ASSERT_TRUE(b.ok);
  EXPECT_GE(b.cpu_utime_seconds, a.cpu_utime_seconds);
  EXPECT_GE(b.cpu_stime_seconds, a.cpu_stime_seconds);
  EXPECT_GT(b.cpu_seconds(), a.cpu_seconds());
  EXPECT_GE(b.minor_faults, a.minor_faults);
  EXPECT_GE(b.major_faults, a.major_faults);
  EXPECT_GE(b.ctx_voluntary, a.ctx_voluntary);
  EXPECT_GE(b.io_read_bytes, a.io_read_bytes);
  EXPECT_GE(b.peak_rss_bytes, a.peak_rss_bytes);
}

TEST(ResourceSampler, PublishMirrorsIntoGaugesAndSeries) {
  obs::MetricsRegistry registry;
  ResourceSampler sampler(&registry);
  const ResourceSample s = sampler.publish();
  ASSERT_TRUE(s.ok);
  const obs::MetricsSnapshot snap = registry.snapshot();
  ASSERT_EQ(snap.gauges.count("proc.rss_bytes"), 1u);
  ASSERT_EQ(snap.gauges.count("proc.cpu_utime_ms"), 1u);
  EXPECT_EQ(static_cast<std::uint64_t>(snap.gauges.at("proc.rss_bytes").value),
            s.rss_bytes);
  ASSERT_EQ(sampler.series().size(), 1u);
  sampler.publish();
  EXPECT_EQ(sampler.series().size(), 2u);
}

TEST(ResourceSampler, SampleJsonIsValid) {
  const ResourceSample s = ResourceSampler::sample();
  EXPECT_TRUE(obs::json_valid(s.to_json())) << s.to_json();
}

#else  // SCIPREP_OBS_DISABLED

TEST(ResourceSampler, DisabledBuildIsANoOp) {
  obs::MetricsRegistry registry;
  ResourceSampler sampler(&registry);
  const ResourceSample s = sampler.publish();
  EXPECT_FALSE(s.ok);
  EXPECT_EQ(s.rss_bytes, 0u);
  EXPECT_DOUBLE_EQ(s.cpu_seconds(), 0.0);
  EXPECT_TRUE(sampler.series().empty());
}

#endif  // SCIPREP_OBS_DISABLED

// --------------------------------------------------------------- trajectory --

BenchRecord simple_record(const std::string& bench, double value,
                          const std::string& fingerprint = "cafe1234") {
  BenchRecord r;
  r.bench = bench;
  r.config = "unit";
  r.config_fingerprint = fingerprint;
  BenchMetric m;
  m.name = "samples_per_s";
  m.value = value;
  m.unit = "samples/s";
  m.better_higher = true;
  r.metrics.push_back(m);
  return r;
}

BenchRun simple_run(double value, const std::string& fingerprint = "cafe1234") {
  BenchRun run;
  run.benches["unit_bench"] = simple_record("unit_bench", value, fingerprint);
  return run;
}

TEST(Trajectory, SaveLoadRoundTrip) {
  const std::string path = temp_path("trajectory.json");
  Trajectory t;
  append_run(t, simple_run(100), 0);
  append_run(t, simple_run(110), 0);
  save_trajectory(path, t);

  Trajectory loaded;
  ASSERT_TRUE(load_trajectory(path, loaded));
  ASSERT_EQ(loaded.runs.size(), 2u);
  EXPECT_EQ(loaded.runs[0].run_index, 1u);
  EXPECT_EQ(loaded.runs[1].run_index, 2u);
  const BenchMetric* m =
      loaded.runs[1].benches.at("unit_bench").find_metric("samples_per_s");
  ASSERT_NE(m, nullptr);
  EXPECT_DOUBLE_EQ(m->value, 110.0);
  std::remove(path.c_str());
}

TEST(Trajectory, AppendCapsHistory) {
  Trajectory t;
  for (int i = 0; i < 10; ++i) append_run(t, simple_run(100.0 + i), 4);
  ASSERT_EQ(t.runs.size(), 4u);
  // The oldest runs were dropped; indices keep counting up.
  EXPECT_EQ(t.runs.front().run_index, 7u);
  EXPECT_EQ(t.runs.back().run_index, 10u);
  const BenchMetric* m =
      t.runs.back().benches.at("unit_bench").find_metric("samples_per_s");
  ASSERT_NE(m, nullptr);
  EXPECT_DOUBLE_EQ(m->value, 109.0);
}

TEST(Trajectory, LoadRejectsMissingGarbageAndWrongSchema) {
  Trajectory t;
  EXPECT_FALSE(load_trajectory(temp_path("nonexistent.json"), t));

  const std::string garbage = temp_path("garbage.json");
  std::ofstream(garbage) << "not json at all {";
  EXPECT_FALSE(load_trajectory(garbage, t));
  std::remove(garbage.c_str());

  const std::string wrong = temp_path("wrong_schema.json");
  std::ofstream(wrong) << R"({"schema":"sciprep.other.v1","runs":[]})";
  EXPECT_FALSE(load_trajectory(wrong, t));
  std::remove(wrong.c_str());
}

// ------------------------------------------------------------------ compare --

TEST(Compare, IdenticalRunsPass) {
  Trajectory t;
  append_run(t, simple_run(100), 0);
  append_run(t, simple_run(100), 0);
  const CompareReport report = compare_latest(t);
  ASSERT_EQ(report.verdicts.size(), 1u);
  EXPECT_EQ(report.verdicts[0].verdict, Verdict::kPass);
  EXPECT_EQ(report.regressions(), 0u);
}

TEST(Compare, DoubledDecodeTimeRegressesAndNamesTheCulprit) {
  BenchRecord base = simple_record("decode_bench", 0);
  base.metrics.clear();
  BenchMetric m;
  m.name = "decode_seconds";
  m.value = 0.1;
  m.unit = "seconds";
  m.better_higher = false;  // time: lower is better
  base.metrics.push_back(m);

  BenchRecord slow = base;
  slow.metrics[0].value = 0.2;  // the injected 2x decode slowdown

  BenchRun run_base;
  run_base.benches["decode_bench"] = base;
  BenchRun run_slow;
  run_slow.benches["decode_bench"] = slow;

  const CompareReport report = compare_runs({run_base}, run_slow);
  ASSERT_EQ(report.verdicts.size(), 1u);
  EXPECT_EQ(report.verdicts[0].verdict, Verdict::kRegressed);
  EXPECT_EQ(report.verdicts[0].bench, "decode_bench");
  EXPECT_EQ(report.verdicts[0].metric, "decode_seconds");
  EXPECT_EQ(report.regressions(), 1u);
  // The gate's output names the culprit, not just a boolean.
  EXPECT_NE(report.human_table().find("decode_bench"), std::string::npos);
  EXPECT_NE(report.human_table().find("decode_seconds"), std::string::npos);
  EXPECT_NE(report.human_table().find("REGRESSED"), std::string::npos);
}

TEST(Compare, HalvedDecodeTimeIsAnImprovement) {
  BenchRun run_base = simple_run(0);
  run_base.benches["unit_bench"].metrics[0].better_higher = false;
  run_base.benches["unit_bench"].metrics[0].value = 0.1;
  BenchRun run_fast = run_base;
  run_fast.benches["unit_bench"].metrics[0].value = 0.05;
  const CompareReport report = compare_runs({run_base}, run_fast);
  ASSERT_EQ(report.verdicts.size(), 1u);
  EXPECT_EQ(report.verdicts[0].verdict, Verdict::kImproved);
  EXPECT_EQ(report.regressions(), 0u);
}

TEST(Compare, MadHistoryWidensTheTolerance) {
  // Noisy history around 100 (MAD 5); current lands at 114 — beyond the
  // 1% relative tolerance but inside the 4*MAD band.
  std::vector<BenchRun> history;
  for (const double v : {100.0, 110.0, 90.0, 105.0, 95.0}) {
    history.push_back(simple_run(v));
  }
  const BenchRun current = simple_run(114);
  CompareOptions mad_on;
  mad_on.rel_tol = 0.01;
  mad_on.min_history = 3;  // MAD trusted
  const CompareReport with_mad = compare_runs(history, current, mad_on);
  ASSERT_EQ(with_mad.verdicts.size(), 1u);
  EXPECT_EQ(with_mad.verdicts[0].verdict, Verdict::kPass);
  EXPECT_DOUBLE_EQ(with_mad.verdicts[0].baseline_median, 100.0);
  EXPECT_DOUBLE_EQ(with_mad.verdicts[0].baseline_mad, 5.0);

  CompareOptions mad_off = mad_on;
  mad_off.min_history = 100;  // history too thin: rel_tol alone applies
  const CompareReport without_mad = compare_runs(history, current, mad_off);
  ASSERT_EQ(without_mad.verdicts.size(), 1u);
  // 114 is samples/s (higher better) — below-median moves would regress, but
  // 114 > 100 is the good side, so it shows as an improvement, not a pass.
  EXPECT_EQ(without_mad.verdicts[0].verdict, Verdict::kImproved);

  // The same spread on the bad side: 86 regresses without MAD, passes with.
  const BenchRun low = simple_run(86);
  EXPECT_EQ(compare_runs(history, low, mad_on).verdicts[0].verdict,
            Verdict::kPass);
  EXPECT_EQ(compare_runs(history, low, mad_off).verdicts[0].verdict,
            Verdict::kRegressed);
}

TEST(Compare, DeclaredNoiseFloorSuppressesTinyWobble) {
  BenchRun base = simple_run(0);
  base.benches["unit_bench"].metrics[0].better_higher = false;
  base.benches["unit_bench"].metrics[0].value = 0.001;
  base.benches["unit_bench"].metrics[0].noise_floor = 0.05;
  BenchRun wobble = base;
  wobble.benches["unit_bench"].metrics[0].value = 0.04;  // 40x, but sub-floor
  const CompareReport report = compare_runs({base}, wobble);
  ASSERT_EQ(report.verdicts.size(), 1u);
  EXPECT_EQ(report.verdicts[0].verdict, Verdict::kPass);
}

TEST(Compare, MissingMetricIsARegression) {
  BenchRun base = simple_run(100);
  BenchRun current = base;
  current.benches["unit_bench"].metrics.clear();
  const CompareReport report = compare_runs({base}, current);
  ASSERT_EQ(report.verdicts.size(), 1u);
  EXPECT_EQ(report.verdicts[0].verdict, Verdict::kMissing);
  EXPECT_EQ(report.regressions(), 1u);

  CompareOptions lenient;
  lenient.fail_on_missing = false;
  EXPECT_EQ(compare_runs({base}, current, lenient).regressions(), 0u);
}

TEST(Compare, NewMetricIsInformational) {
  BenchRun base = simple_run(100);
  BenchRun current = base;
  BenchMetric extra;
  extra.name = "brand_new";
  extra.value = 1;
  current.benches["unit_bench"].metrics.push_back(extra);
  const CompareReport report = compare_runs({base}, current);
  EXPECT_EQ(report.count(Verdict::kNew), 1u);
  EXPECT_EQ(report.regressions(), 0u);
}

TEST(Compare, ConfigChangeIsNotComparable) {
  BenchRun base = simple_run(100, "aaaa");
  // Same bench, different knobs: a 10x "regression" must not fire.
  BenchRun retuned = simple_run(10, "bbbb");
  const CompareReport report = compare_runs({base}, retuned);
  ASSERT_GE(report.verdicts.size(), 1u);
  EXPECT_EQ(report.verdicts[0].verdict, Verdict::kConfigChanged);
  EXPECT_EQ(report.regressions(), 0u);
}

TEST(Compare, RequiresTwoRunsForSelfComparison) {
  Trajectory t;
  append_run(t, simple_run(100), 0);
  EXPECT_TRUE(compare_latest(t).verdicts.empty());
}

}  // namespace
