#include "sciprep/obs/metrics.hpp"

#include <algorithm>
#include <cstdio>
#include <set>

#include "sciprep/common/error.hpp"
#include "sciprep/common/log.hpp"
#include "sciprep/common/sysio.hpp"
#include "sciprep/obs/json.hpp"

namespace sciprep::obs {

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  static const bool wired = [] {
    // Pre-create so every dump shows them, then mirror log events as they
    // happen. The hook only fires after this block completes, so the
    // re-entrant global() calls below are safe.
    registry.counter("log.warnings_total");
    registry.counter("log.errors_total");
    set_log_hook([](LogLevel level, std::string_view) {
      if (level == LogLevel::kWarn) {
        MetricsRegistry::global().counter("log.warnings_total").add(1);
      } else if (level == LogLevel::kError) {
        MetricsRegistry::global().counter("log.errors_total").add(1);
      }
    });
    return true;
  }();
  (void)wired;
  return registry;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard lock(mutex_);
  return counters_[name];
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard lock(mutex_);
  return gauges_[name];
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      LogHistogram::Options options) {
  std::lock_guard lock(mutex_);
  return histograms_.try_emplace(name, options).first->second;
}

std::uint64_t MetricsRegistry::counter_value(const std::string& name) const {
  std::lock_guard lock(mutex_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second.value();
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard lock(mutex_);
  MetricsSnapshot snap;
  for (const auto& [name, c] : counters_) {
    snap.counters.emplace(name, c.value());
  }
  for (const auto& [name, g] : gauges_) {
    snap.gauges.emplace(
        name, MetricsSnapshot::GaugeValue{g.value(), g.high_watermark()});
  }
  for (const auto& [name, h] : histograms_) {
    snap.histograms.emplace(
        name, MetricsSnapshot::HistogramSummary{h.count(), h.sum()});
  }
  return snap;
}

std::string MetricsRegistry::to_json() const {
  std::lock_guard lock(mutex_);
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) out += ',';
    first = false;
    out += fmt("\"{}\":{}", json_escape(name), c.value());
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (!first) out += ',';
    first = false;
    out += fmt("\"{}\":{{\"value\":{},\"high_watermark\":{}}}",
               json_escape(name), g.value(), g.high_watermark());
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) out += ',';
    first = false;
    const LogHistogram snap = h.snapshot();
    out += fmt(
        "\"{}\":{{\"count\":{},\"sum\":{},\"mean\":{},\"min\":{},"
        "\"max\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"buckets\":[",
        json_escape(name), snap.count(), json_number(snap.sum()),
        json_number(snap.mean()), json_number(snap.min()),
        json_number(snap.max()), json_number(snap.quantile(0.50)),
        json_number(snap.quantile(0.90)), json_number(snap.quantile(0.99)));
    bool first_bucket = true;
    for (std::size_t i = 0; i < snap.bucket_count(); ++i) {
      if (snap.buckets()[i] == 0) continue;  // sparse dump
      if (!first_bucket) out += ',';
      first_bucket = false;
      out += fmt("{{\"lo\":{},\"hi\":{},\"count\":{}}}",
                 json_number(snap.bucket_lower(i)),
                 json_number(snap.bucket_upper(i)), snap.buckets()[i]);
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

std::string MetricsRegistry::human_dump() const {
  std::lock_guard lock(mutex_);
  std::string out;
  if (!counters_.empty()) {
    out += "counters:\n";
    for (const auto& [name, c] : counters_) {
      out += fmt("  {:<48} {}\n", name, c.value());
    }
  }
  if (!gauges_.empty()) {
    out += "gauges:\n";
    for (const auto& [name, g] : gauges_) {
      out += fmt("  {:<48} {}  (high {})\n", name, g.value(),
                 g.high_watermark());
    }
  }
  if (!histograms_.empty()) {
    out += fmt("histograms: {:<36} {:>9} {:>11} {:>11} {:>11} {:>11}\n", "",
               "count", "mean", "p50", "p90", "p99");
    for (const auto& [name, h] : histograms_) {
      const LogHistogram snap = h.snapshot();
      out += fmt("  {:<46} {:>9} {:>11.4g} {:>11.4g} {:>11.4g} {:>11.4g}\n",
                 name, snap.count(), snap.mean(), snap.quantile(0.50),
                 snap.quantile(0.90), snap.quantile(0.99));
    }
  }
  return out;
}

void MetricsRegistry::write_json(const std::string& path) const {
  sysio::write_file(path, as_bytes(to_json()));
}

void MetricsRegistry::reset() {
  std::lock_guard lock(mutex_);
  for (auto& [name, c] : counters_) c.reset();
  for (auto& [name, g] : gauges_) g.reset();
  for (auto& [name, h] : histograms_) h.reset();
}

MetricsSnapshot snapshot_delta(const MetricsSnapshot& current,
                               const MetricsSnapshot& previous) {
  MetricsSnapshot delta;
  for (const auto& [name, value] : current.counters) {
    const auto it = previous.counters.find(name);
    const std::uint64_t prev = it == previous.counters.end() ? 0 : it->second;
    delta.counters[name] = value >= prev ? value - prev : value;
  }
  // Gauges are levels: the delta stream just carries the latest reading.
  delta.gauges = current.gauges;
  for (const auto& [name, h] : current.histograms) {
    const auto it = previous.histograms.find(name);
    MetricsSnapshot::HistogramSummary d;
    if (it == previous.histograms.end() || h.count < it->second.count) {
      d = h;  // new metric, or the source registry was reset
    } else {
      d.count = h.count - it->second.count;
      d.sum = h.sum - it->second.sum;
    }
    delta.histograms[name] = d;
  }
  return delta;
}

void snapshot_accumulate(MetricsSnapshot& into, const MetricsSnapshot& delta) {
  for (const auto& [name, value] : delta.counters) {
    into.counters[name] += value;
  }
  for (const auto& [name, g] : delta.gauges) {
    auto& dst = into.gauges[name];
    dst.value = g.value;
    dst.high_watermark = std::max(dst.high_watermark, g.high_watermark);
  }
  for (const auto& [name, h] : delta.histograms) {
    auto& dst = into.histograms[name];
    dst.count += h.count;
    dst.sum += h.sum;
  }
}

std::string fleet_line(const std::string& scope, std::uint64_t seq,
                       double t_seconds, const MetricsSnapshot& totals,
                       const MetricsSnapshot& delta) {
  std::string line;
  line.reserve(1024);
  line += fmt("{{\"schema\":\"{}\",\"scope\":\"{}\",\"seq\":{},\"t\":{},"
              "\"counters\":{{",
              kFleetSchema, json_escape(scope), seq, json_number(t_seconds));
  bool first = true;
  for (const auto& [name, total] : totals.counters) {
    const auto it = delta.counters.find(name);
    const std::uint64_t d = it == delta.counters.end() ? 0 : it->second;
    if (!first) line += ',';
    first = false;
    line += fmt("\"{}\":{{\"total\":{},\"delta\":{}}}", json_escape(name),
                total, d);
  }
  line += "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : totals.gauges) {
    if (!first) line += ',';
    first = false;
    line += fmt("\"{}\":{{\"value\":{},\"high_watermark\":{}}}",
                json_escape(name), g.value, g.high_watermark);
  }
  line += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : totals.histograms) {
    const auto it = delta.histograms.find(name);
    const std::uint64_t dc = it == delta.histograms.end() ? 0 : it->second.count;
    const double ds = it == delta.histograms.end() ? 0.0 : it->second.sum;
    if (!first) line += ',';
    first = false;
    line += fmt(
        "\"{}\":{{\"count\":{},\"sum\":{},\"count_delta\":{},"
        "\"sum_delta\":{}}}",
        json_escape(name), h.count, json_number(h.sum), dc, json_number(ds));
  }
  line += "}}";
  return line;
}

bool parse_fleet_line(std::string_view text, FleetLine& out) {
  JsonValue doc;
  if (!json_parse(text, doc) || doc.string_or("schema", "") != kFleetSchema) {
    return false;
  }
  out = FleetLine{};
  out.scope = doc.string_or("scope", "");
  out.t = doc.number_or("t", 0);
  for (const auto& [name, v] : doc.at("counters").as_object()) {
    out.totals.counters[name] =
        static_cast<std::uint64_t>(v.number_or("total", 0));
    out.delta.counters[name] =
        static_cast<std::uint64_t>(v.number_or("delta", 0));
  }
  for (const auto& [name, v] : doc.at("gauges").as_object()) {
    MetricsSnapshot::GaugeValue g;
    g.value = static_cast<std::int64_t>(v.number_or("value", 0));
    g.high_watermark =
        static_cast<std::int64_t>(v.number_or("high_watermark", 0));
    out.totals.gauges[name] = g;
    out.delta.gauges[name] = g;
  }
  for (const auto& [name, v] : doc.at("histograms").as_object()) {
    out.totals.histograms[name] = {
        static_cast<std::uint64_t>(v.number_or("count", 0)),
        v.number_or("sum", 0)};
    out.delta.histograms[name] = {
        static_cast<std::uint64_t>(v.number_or("count_delta", 0)),
        v.number_or("sum_delta", 0)};
  }
  return true;
}

namespace {

/// Prometheus metric names allow [a-zA-Z0-9_:]; sciprep's dotted names map
/// by replacing every other character with '_' and prefixing "sciprep_".
std::string prom_name(const std::string& name) {
  std::string out = "sciprep_";
  out.reserve(out.size() + name.size());
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9');
    out.push_back(ok ? c : '_');
  }
  return out;
}

}  // namespace

std::string prometheus_text(
    const std::map<std::string, MetricsSnapshot>& scopes) {
  std::set<std::string> counter_names;
  std::set<std::string> gauge_names;
  std::set<std::string> hist_names;
  for (const auto& [scope, snap] : scopes) {
    for (const auto& [n, v] : snap.counters) counter_names.insert(n);
    for (const auto& [n, v] : snap.gauges) gauge_names.insert(n);
    for (const auto& [n, v] : snap.histograms) hist_names.insert(n);
  }
  const auto label = [](const std::string& scope) {
    return fmt("{{scope=\"{}\"}}", json_escape(scope));
  };
  std::string out;
  out.reserve(1024);
  for (const std::string& name : counter_names) {
    const std::string p = prom_name(name);
    out += fmt("# TYPE {} counter\n", p);
    std::uint64_t total = 0;
    for (const auto& [scope, snap] : scopes) {
      const auto it = snap.counters.find(name);
      if (it == snap.counters.end()) continue;
      total += it->second;
      if (!scope.empty()) out += fmt("{}{} {}\n", p, label(scope), it->second);
    }
    out += fmt("{} {}\n", p, total);
  }
  for (const std::string& name : gauge_names) {
    const std::string p = prom_name(name);
    out += fmt("# TYPE {} gauge\n", p);
    std::int64_t total = 0;
    for (const auto& [scope, snap] : scopes) {
      const auto it = snap.gauges.find(name);
      if (it == snap.gauges.end()) continue;
      total += it->second.value;
      if (!scope.empty()) {
        out += fmt("{}{} {}\n", p, label(scope), it->second.value);
      }
    }
    out += fmt("{} {}\n", p, total);
  }
  for (const std::string& name : hist_names) {
    // count/sum pairs, the prometheus summary-metric core.
    const std::string p = prom_name(name);
    out += fmt("# TYPE {} summary\n", p);
    std::uint64_t count = 0;
    double sum = 0;
    for (const auto& [scope, snap] : scopes) {
      const auto it = snap.histograms.find(name);
      if (it == snap.histograms.end()) continue;
      count += it->second.count;
      sum += it->second.sum;
      if (!scope.empty()) {
        out += fmt("{}_count{} {}\n{}_sum{} {}\n", p, label(scope),
                   it->second.count, p, label(scope),
                   json_number(it->second.sum));
      }
    }
    out += fmt("{}_count {}\n{}_sum {}\n", p, count, p, json_number(sum));
  }
  return out;
}

PoolMetrics::PoolMetrics(MetricsRegistry& registry, const std::string& prefix)
    : depth_(registry.gauge(prefix + ".queue_depth")),
      tasks_(registry.counter(prefix + ".tasks_total")),
      queue_seconds_(registry.histogram(prefix + ".task_queue_seconds")),
      run_seconds_(registry.histogram(prefix + ".task_run_seconds")) {}

void PoolMetrics::on_enqueue(std::size_t queue_depth) {
  // Track outstanding work (queued + running) as a +1/-1 pair: unlike
  // mirroring `queue_depth` (sampled only at enqueue time), this drains back
  // to zero and its high-watermark is the peak backlog.
  (void)queue_depth;
  depth_.add(1);
}

void PoolMetrics::on_task_complete(double queue_seconds, double run_seconds) {
  tasks_.add(1);
  depth_.add(-1);
  queue_seconds_.record(queue_seconds);
  run_seconds_.record(run_seconds);
}

}  // namespace sciprep::obs
