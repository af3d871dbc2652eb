#include "spans.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>

namespace loadbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

int SpanLog::open(std::string name, std::string layer) {
  if (!enabled_) return -1;
  Span span;
  span.name = std::move(name);
  span.layer = std::move(layer);
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.start_ns = now_ns();
  spans_.push_back(std::move(span));
  const int id = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(id);
  return id;
}

void SpanLog::close(int id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  // Spans nest strictly on the one recording thread, so `id` is on top.
  while (!stack_.empty()) {
    const int top = stack_.back();
    stack_.pop_back();
    if (top == id) break;
  }
}

std::vector<double> SpanLog::durations_ms(const std::string& name,
                                          int parent) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name && s.end_ns >= 0 &&
        (parent == kAnyParent || s.parent == parent)) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
    }
  }
  return out;
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

std::string SpanLog::chrome_json(const std::string& metadata_json) const {
  std::string out = "{\"displayTimeUnit\": \"ms\", \"metadata\": " +
                    metadata_json + ", \"traceEvents\": [\n";
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  char buf[160];
  bool first = true;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < 0) continue;
    std::snprintf(buf, sizeof(buf),
                  "\"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": %.3f, "
                  "\"dur\": %.3f, \"args\": {\"id\": %zu, \"parent\": %d}}",
                  static_cast<double>(s.start_ns - t0) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                  s.parent);
    out += first ? "" : ",\n";
    first = false;
    out += "{\"name\": \"" + json_escape(s.name) + "\", \"cat\": \"" +
           json_escape(s.layer) + "\", " + buf;
  }
  out += "\n]}\n";
  return out;
}

std::string SpanLog::self_time_table() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0 && s.end_ns >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  struct Row {
    std::size_t count = 0;
    double total_ms = 0;
    double self_ms = 0;
  };
  std::map<std::pair<std::string, std::string>, Row> rows;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < 0) continue;
    Row& row = rows[{s.layer, s.name}];
    const auto dur = s.end_ns - s.start_ns;
    row.count += 1;
    row.total_ms += static_cast<double>(dur) / 1e6;
    row.self_ms += static_cast<double>(dur - child_ns[i]) / 1e6;
  }
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%-10s %-34s %8s %12s %12s\n", "layer",
                "span", "count", "total_ms", "self_ms");
  out += buf;
  for (const auto& [key, row] : rows) {
    std::snprintf(buf, sizeof(buf), "%-10s %-34s %8zu %12.3f %12.3f\n",
                  key.first.c_str(), key.second.c_str(), row.count,
                  row.total_ms, row.self_ms);
    out += buf;
  }
  return out;
}

}  // namespace loadbench
