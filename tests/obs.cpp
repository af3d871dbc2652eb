// Tests for sciprep::obs — span tracer, metrics registry, JSON writers and
// the JSON document reader, the ThreadPool/log wiring, and host resource
// sampling.
#include <gtest/gtest.h>

#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "sciprep/common/log.hpp"
#include "sciprep/common/threadpool.hpp"
#include "sciprep/obs/json.hpp"
#include "sciprep/obs/metrics.hpp"
#include "sciprep/obs/resource.hpp"
#include "sciprep/obs/trace.hpp"

namespace sciprep::obs {
namespace {

// --- JSON helpers ----------------------------------------------------------

TEST(JsonEscape, EscapesControlAndQuoteCharacters) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("back\\slash"), "back\\\\slash");
  EXPECT_EQ(json_escape("line\nbreak"), "line\\nbreak");
  EXPECT_EQ(json_escape(std::string("nul\0byte", 8)), "nul\\u0000byte");
}

TEST(JsonNumber, NonFiniteBecomesNull) {
  EXPECT_EQ(json_number(std::nan("")), "null");
  EXPECT_EQ(json_number(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(json_number(2.5), "2.5");
}

TEST(JsonNumber, FiniteDoublesRoundTripExactly) {
  for (const double v :
       {0.1 + 0.2, 1.0 / 3.0, 123456789012.5, 1e-300, -0.0,
        std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::min() / 3,
        std::numeric_limits<double>::max(),
        std::numeric_limits<double>::lowest()}) {
    const std::string text = json_number(v);
    JsonValue doc;
    ASSERT_TRUE(json_parse(text, doc)) << text;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(doc.as_number()),
              std::bit_cast<std::uint64_t>(v))
        << text;
  }
  EXPECT_EQ(json_number(0.1 + 0.2), "0.30000000000000004");
  EXPECT_EQ(json_number(123456789012.5), "123456789012.5");
}

TEST(JsonValid, AcceptsValidDocuments) {
  EXPECT_TRUE(json_valid("{}"));
  EXPECT_TRUE(json_valid("[1, 2.5e-3, \"x\", null, true, {\"k\": []}]"));
  EXPECT_TRUE(json_valid("{\"a\":{\"b\":[1,-2,3.0]}}"));
}

TEST(JsonValid, RejectsMalformedDocuments) {
  EXPECT_FALSE(json_valid(""));
  EXPECT_FALSE(json_valid("{"));
  EXPECT_FALSE(json_valid("{\"a\":}"));
  EXPECT_FALSE(json_valid("[1,]"));
  EXPECT_FALSE(json_valid("{} trailing"));
  EXPECT_FALSE(json_valid("nan"));
}

TEST(JsonDom, ParsesScalarsAndNesting) {
  JsonValue doc;
  ASSERT_TRUE(json_parse(
      R"({"a":1.5,"b":"text","c":true,"d":null,"e":[1,2,3],"f":{"g":-2e3}})",
      doc));
  ASSERT_TRUE(doc.is_object());
  EXPECT_DOUBLE_EQ(doc.number_or("a", 0), 1.5);
  EXPECT_EQ(doc.string_or("b", ""), "text");
  EXPECT_TRUE(doc.at("c").as_bool());
  EXPECT_TRUE(doc.at("d").is_null());
  ASSERT_TRUE(doc.at("e").is_array());
  ASSERT_EQ(doc.at("e").as_array().size(), 3u);
  EXPECT_DOUBLE_EQ(doc.at("e").as_array()[1].as_number(), 2.0);
  EXPECT_DOUBLE_EQ(doc.at("f").number_or("g", 0), -2000.0);
}

TEST(JsonDom, ParsesStringEscapes) {
  JsonValue doc;
  ASSERT_TRUE(json_parse(R"({"s":"a\"b\\c\nd\tuA"})", doc));
  EXPECT_EQ(doc.string_or("s", ""), "a\"b\\c\nd\tuA");
}

TEST(JsonDom, RejectsMalformedDocuments) {
  JsonValue doc;
  EXPECT_FALSE(json_parse("", doc));
  EXPECT_FALSE(json_parse("{", doc));
  EXPECT_FALSE(json_parse("{\"a\":}", doc));
  EXPECT_FALSE(json_parse("[1,2,]", doc));
  EXPECT_FALSE(json_parse("{} trailing", doc));
  EXPECT_FALSE(json_parse("{'single':1}", doc));
}

TEST(JsonDom, MissingKeysDegradeToFallbacks) {
  JsonValue doc;
  ASSERT_TRUE(json_parse(R"({"x":1})", doc));
  EXPECT_FALSE(doc.has("y"));
  EXPECT_TRUE(doc.at("y").is_null());
  EXPECT_DOUBLE_EQ(doc.number_or("y", 7.0), 7.0);
  EXPECT_EQ(doc.string_or("y", "fb"), "fb");
  // Wrong-kind access degrades the same way.
  EXPECT_DOUBLE_EQ(doc.at("x").as_array().size(), 0u);
}

TEST(JsonDom, NestingIsLimitedToTheMaxDepth) {
  auto nested = [](int depth) {
    return std::string(static_cast<std::size_t>(depth), '[') +
           std::string(static_cast<std::size_t>(depth), ']');
  };
  JsonValue doc;
  EXPECT_TRUE(json_parse(nested(kJsonMaxDepth), doc));
  EXPECT_FALSE(json_parse(nested(kJsonMaxDepth + 1), doc));
  EXPECT_TRUE(json_valid(nested(kJsonMaxDepth)));
  EXPECT_FALSE(json_valid(nested(kJsonMaxDepth + 1)));

  // Objects count toward the same limit.
  std::string objects;
  for (int i = 0; i < kJsonMaxDepth; ++i) objects += "{\"k\":";
  objects += "1" + std::string(static_cast<std::size_t>(kJsonMaxDepth), '}');
  EXPECT_TRUE(json_parse(objects, doc));
  EXPECT_FALSE(json_parse("[" + objects + "]", doc));
}

// --- Tracer ----------------------------------------------------------------

TEST(Tracer, RecordsAndExportsSpans) {
  Tracer tracer(16);
  tracer.record("decode", "pipeline", 1000, 3000, "{\"i\": 1}");
  tracer.record("ops", "pipeline", 3000, 4000);
  EXPECT_EQ(tracer.size(), 2u);

  const auto spans = tracer.snapshot();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "decode");
  EXPECT_EQ(spans[0].t_start_ns, 1000u);
  EXPECT_EQ(spans[0].args_json, "{\"i\": 1}");
  EXPECT_EQ(spans[1].name, "ops");

  const std::string json = tracer.to_chrome_json();
  EXPECT_TRUE(json_valid(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"decode\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"i\": 1}"), std::string::npos);
}

TEST(Tracer, RingWrapKeepsNewestSpans) {
  Tracer tracer(4);
  for (int i = 0; i < 10; ++i) {
    tracer.record(fmt("span{}", i), "t", static_cast<std::uint64_t>(i),
                  static_cast<std::uint64_t>(i + 1));
  }
  EXPECT_EQ(tracer.size(), 4u);
  EXPECT_EQ(tracer.total_recorded(), 10u);
  const auto spans = tracer.snapshot();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans.front().name, "span6");  // oldest retained
  EXPECT_EQ(spans.back().name, "span9");

  tracer.clear();
  EXPECT_EQ(tracer.size(), 0u);
  EXPECT_TRUE(json_valid(tracer.to_chrome_json()));
}

TEST(Tracer, ScopedSpanRespectsEnabledFlag) {
  Tracer tracer(16);
  {
    ScopedSpan span(tracer, "off", "t");
    EXPECT_FALSE(span.active());  // tracer disabled by default
  }
  EXPECT_EQ(tracer.size(), 0u);

  tracer.set_enabled(true);
  {
    ScopedSpan span(tracer, "on", "t");
    EXPECT_TRUE(span.active());
    span.set_args_json("{\"k\": 2}");
  }
  ASSERT_EQ(tracer.size(), 1u);
  const auto spans = tracer.snapshot();
  EXPECT_EQ(spans[0].name, "on");
  EXPECT_GE(spans[0].t_end_ns, spans[0].t_start_ns);
  EXPECT_EQ(spans[0].args_json, "{\"k\": 2}");
}

TEST(Tracer, ConcurrentWritersAllLand) {
  Tracer tracer(1 << 12);
  tracer.set_enabled(true);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 200;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracer] {
      for (int i = 0; i < kPerThread; ++i) {
        ScopedSpan span(tracer, "work", "mt");
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(tracer.total_recorded(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_TRUE(json_valid(tracer.to_chrome_json()));
}

// --- Metrics ---------------------------------------------------------------

TEST(Metrics, CounterGaugeBasics) {
  MetricsRegistry registry;
  Counter& c = registry.counter("c_total");
  c.add();
  c.add(4);
  EXPECT_EQ(c.value(), 5u);
  EXPECT_EQ(registry.counter_value("c_total"), 5u);
  EXPECT_EQ(registry.counter_value("missing"), 0u);
  // find-or-create returns the same object
  EXPECT_EQ(&registry.counter("c_total"), &c);

  Gauge& g = registry.gauge("depth");
  g.add(3);
  g.add(2);
  g.add(-4);
  EXPECT_EQ(g.value(), 1);
  EXPECT_EQ(g.high_watermark(), 5);
  g.set(10);
  EXPECT_EQ(g.high_watermark(), 10);
}

TEST(Metrics, HistogramQuantilesMatchPercentileConvention) {
  MetricsRegistry registry;
  Histogram& h = registry.histogram("lat_seconds");
  for (int i = 1; i <= 100; ++i) {
    h.record(static_cast<double>(i) * 1e-3);
  }
  EXPECT_EQ(h.count(), 100u);
  EXPECT_NEAR(h.sum(), 5.050, 1e-9);
  // Log-bucketed: quantiles are bucket-resolution estimates. The default
  // options give 4 buckets per octave, so the relative error of a quantile
  // is bounded by one bucket's width (2^(1/4) ~ 1.19x).
  EXPECT_NEAR(h.quantile(0.5), 50.5e-3, 50.5e-3 * 0.2);
  EXPECT_NEAR(h.quantile(0.9), 90.1e-3, 90.1e-3 * 0.2);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 1e-3);   // exact at the extremes
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 0.1);
}

TEST(Metrics, RegistryJsonDumpIsValid) {
  MetricsRegistry registry;
  registry.counter("events_total").add(3);
  registry.gauge("level").set(-2);
  registry.histogram("t_seconds").record(1e-3);
  registry.histogram("empty_seconds");  // empty histogram: NaN -> null

  const std::string json = registry.to_json();
  EXPECT_TRUE(json_valid(json)) << json;
  EXPECT_NE(json.find("\"events_total\":3"), std::string::npos);
  EXPECT_NE(json.find("\"high_watermark\":"), std::string::npos);
  EXPECT_NE(json.find("\"p99\":"), std::string::npos);
  EXPECT_NE(json.find("\"mean\":null"), std::string::npos);

  const std::string human = registry.human_dump();
  EXPECT_NE(human.find("events_total"), std::string::npos);

  registry.reset();
  EXPECT_EQ(registry.counter_value("events_total"), 0u);
  EXPECT_EQ(registry.histogram("t_seconds").count(), 0u);
}

std::string fleet_text(const std::string& counter_total,
                       const std::string& gauge_value,
                       const std::string& hist_count) {
  return "{\"schema\":\"sciprep.flow.fleet.v1\",\"scope\":\"s\",\"seq\":0,"
         "\"t\":1,\"counters\":{\"c\":{\"total\":" +
         counter_total +
         ",\"delta\":0}},\"gauges\":{\"g\":{\"value\":" + gauge_value +
         ",\"high_watermark\":3}},\"histograms\":{\"h\":{\"count\":" +
         hist_count + ",\"sum\":1.5,\"count_delta\":0,\"sum_delta\":0}}}";
}

TEST(FleetLine, CountsTotalsAndGaugesMustBeInRangeIntegers) {
  FleetLine line;
  // 2^64 - 2048 is the largest double below 2^64: still a valid count.
  ASSERT_TRUE(
      parse_fleet_line(fleet_text("18446744073709549568", "-1", "5"), line));
  EXPECT_EQ(line.totals.counters.at("c"), 18446744073709549568ull);
  EXPECT_EQ(line.totals.gauges.at("g").value, -1);
  EXPECT_EQ(line.totals.histograms.at("h").count, 5u);

  for (const std::string bad : {"-1", "1e300", "18446744073709551616"}) {
    EXPECT_FALSE(parse_fleet_line(fleet_text(bad, "0", "5"), line)) << bad;
    EXPECT_FALSE(parse_fleet_line(fleet_text("1", "0", bad), line)) << bad;
    // A gauge is signed: -1 is a level, the other two overflow int64.
    EXPECT_EQ(parse_fleet_line(fleet_text("1", bad, "5"), line), bad == "-1")
        << bad;
  }
  EXPECT_FALSE(parse_fleet_line(fleet_text("1.5", "0", "5"), line));
  EXPECT_FALSE(parse_fleet_line(fleet_text("1", "-9223372036854777856", "5"),
                                line));
}

TEST(Metrics, PoolMetricsObservesRealThreadPool) {
  MetricsRegistry registry;
  PoolMetrics observer(registry, "pool");
  {
    ThreadPool pool(2);
    pool.set_observer(&observer);
    pool.parallel_for(32, [](std::size_t) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    });
    pool.set_observer(nullptr);
  }
  EXPECT_EQ(registry.counter_value("pool.tasks_total"), 32u);
  EXPECT_EQ(registry.gauge("pool.queue_depth").value(), 0);  // drained
  EXPECT_GT(registry.gauge("pool.queue_depth").high_watermark(), 0);
  EXPECT_EQ(registry.histogram("pool.task_run_seconds").count(), 32u);
  EXPECT_EQ(registry.histogram("pool.task_queue_seconds").count(), 32u);
  EXPECT_GT(registry.histogram("pool.task_run_seconds").sum(), 0.0);
}

TEST(Metrics, GlobalRegistryCountsLogEvents) {
  MetricsRegistry& global = MetricsRegistry::global();
  const std::uint64_t warn0 = global.counter_value("log.warnings_total");
  const std::uint64_t err0 = global.counter_value("log.errors_total");
  // Counting happens before threshold filtering: raise the threshold so the
  // warn line is suppressed, and check it is counted anyway.
  const LogLevel level0 = log_level();
  set_log_level(LogLevel::kError);
  log_message(LogLevel::kWarn, "obs test warn (should not print)");
  log_message(LogLevel::kError, "obs test error (expected in output)");
  set_log_level(level0);
  EXPECT_EQ(global.counter_value("log.warnings_total"), warn0 + 1);
  EXPECT_EQ(global.counter_value("log.errors_total"), err0 + 1);
}

// --- Process-wide tracer and registry ---------------------------------------

TEST(ObsGlobals, ScopedSpanRecordsWhenGlobalTracerEnabled) {
  Tracer& tracer = Tracer::global();
  tracer.clear();
  const std::uint64_t before = tracer.total_recorded();
  tracer.set_enabled(true);
  {
    const ScopedSpan span("global.test", "test");
  }
  tracer.set_enabled(false);
  EXPECT_EQ(tracer.total_recorded(), before + 1);
  const auto spans = tracer.snapshot();
  EXPECT_EQ(spans.back().name, "global.test");
  tracer.clear();
}

TEST(ObsGlobals, GlobalCounterAddAccumulates) {
  const std::uint64_t before =
      MetricsRegistry::global().counter_value("obs_test.global_total");
  MetricsRegistry::global().counter("obs_test.global_total").add(3);
  EXPECT_EQ(MetricsRegistry::global().counter_value("obs_test.global_total"),
            before + 3);
}

// --- Resource sampler --------------------------------------------------------

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
  for (int i = 0; i < 2000000; ++i) {
    sink = sink + static_cast<double>(i) * 1e-9;
  }
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
  MetricsRegistry registry;
  ResourceSampler sampler(&registry);
  const ResourceSample s = sampler.publish();
  ASSERT_TRUE(s.ok);
  const MetricsSnapshot snap = registry.snapshot();
  ASSERT_EQ(snap.gauges.count("proc.rss_bytes"), 1u);
  ASSERT_EQ(snap.gauges.count("proc.cpu_utime_ms"), 1u);
  EXPECT_EQ(static_cast<std::uint64_t>(snap.gauges.at("proc.rss_bytes").value),
            s.rss_bytes);
  // Each publish is one point of the exporter's series: the next reading
  // overwrites the gauges, and the cumulative CPU clock never runs back.
  const ResourceSample later = sampler.publish();
  ASSERT_TRUE(later.ok);
  EXPECT_GE(registry.snapshot().gauges.at("proc.cpu_utime_ms").value,
            snap.gauges.at("proc.cpu_utime_ms").value);
}

TEST(ResourceSampler, SampleJsonIsValid) {
  const ResourceSample s = ResourceSampler::sample();
  EXPECT_TRUE(json_valid(s.to_json())) << s.to_json();
}

}  // namespace
}  // namespace sciprep::obs
