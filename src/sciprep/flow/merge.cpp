#include "sciprep/flow/merge.hpp"

#include <cmath>
#include <set>
#include <utility>

#include "sciprep/common/format.hpp"
#include "sciprep/obs/json.hpp"

namespace sciprep::flow {

namespace {

std::uint64_t shifted(std::uint64_t t_ns, std::int64_t shift_ns) {
  const std::int64_t t = static_cast<std::int64_t>(t_ns) + shift_ns;
  return t < 0 ? 0 : static_cast<std::uint64_t>(t);
}

/// (trace_id, span_id-or-parent) key parsed from a span's args; id 0 means
/// the span carries no usable linkage.
struct LinkKey {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  [[nodiscard]] bool usable() const { return trace_id != 0; }
  bool operator<(const LinkKey& o) const {
    return trace_id != o.trace_id ? trace_id < o.trace_id
                                  : span_id < o.span_id;
  }
};

LinkKey parse_link(const obs::TraceSpan& span, const char* id_field) {
  LinkKey key;
  if (span.args_json.empty()) return key;
  obs::JsonValue doc;
  if (!obs::json_parse(span.args_json, doc)) return key;
  key.trace_id = static_cast<std::uint64_t>(doc.number_or("trace_id", 0));
  key.span_id = static_cast<std::uint64_t>(doc.number_or(id_field, 0));
  return key;
}

double span_seconds(const obs::TraceSpan& span) {
  return static_cast<double>(span.t_end_ns - span.t_start_ns) / 1e9;
}

double hist_sum(const obs::MetricsSnapshot& snap, const char* name) {
  const auto it = snap.histograms.find(name);
  return it == snap.histograms.end() ? 0.0 : it->second.sum;
}

bool sums_agree(double span_s, double hist_s) {
  const double scale = std::max({std::fabs(span_s), std::fabs(hist_s), 1e-9});
  // Spans store integer nanoseconds while histograms accumulate doubles from
  // the same measured intervals; allow rounding plus a little slack.
  return std::fabs(span_s - hist_s) / scale < 1e-3;
}

}  // namespace

std::string merge_chrome_json(const std::vector<ProcessTrace>& processes) {
  std::string out;
  std::size_t spans = 0;
  for (const ProcessTrace& p : processes) spans += p.spans.size();
  out.reserve(spans * 112 + 256);
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const ProcessTrace& p : processes) {
    if (!first) out += ',';
    first = false;
    out += fmt(
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},"
        "\"args\":{{\"name\":\"{}\"}}}}",
        p.pid, obs::json_escape(p.process_name));
    for (const auto& [tid, name] : p.thread_names) {
      out += fmt(
          ",{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{},\"tid\":{},"
          "\"args\":{{\"name\":\"{}\"}}}}",
          p.pid, tid, obs::json_escape(name));
    }
    for (const obs::TraceSpan& span : p.spans) {
      const std::uint64_t t0 = shifted(span.t_start_ns, p.shift_ns);
      const std::uint64_t t1 = shifted(span.t_end_ns, p.shift_ns);
      out += fmt(
          ",{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":{},"
          "\"tid\":{},\"ts\":{},\"dur\":{}",
          obs::json_escape(span.name), obs::json_escape(span.category), p.pid,
          span.thread, obs::json_number(static_cast<double>(t0) / 1e3),
          obs::json_number(static_cast<double>(t1 - t0) / 1e3));
      if (!span.args_json.empty()) {
        out += ",\"args\":";
        out += span.args_json;
      }
      out += '}';
    }
  }
  out += "]}";
  return out;
}

std::string FlowValidation::to_json() const {
  return fmt(
      "{{\"schema\":\"sciprep.flow.validation.v1\",\"client_batches\":{},"
      "\"linked\":{},\"decomposed\":{},\"decomposed_fraction\":{},"
      "\"client_span_seconds\":{},\"client_hist_seconds\":{},"
      "\"server_span_seconds\":{},\"server_hist_seconds\":{},"
      "\"histograms_consistent\":{}}}",
      client_batches, linked, decomposed,
      obs::json_number(decomposed_fraction),
      obs::json_number(client_span_seconds),
      obs::json_number(client_hist_seconds),
      obs::json_number(server_span_seconds),
      obs::json_number(server_hist_seconds),
      histograms_consistent ? "true" : "false");
}

FlowValidation validate_flow(const std::vector<obs::TraceSpan>& client_spans,
                             const std::vector<obs::TraceSpan>& server_spans,
                             const obs::MetricsSnapshot& client_metrics,
                             const obs::MetricsSnapshot& server_metrics,
                             std::uint64_t client_spans_dropped,
                             std::uint64_t server_spans_dropped) {
  FlowValidation v;

  // Trace ids this client owns. The server's span ring is shared by every
  // tenant it serves, while the metrics snapshot it ships is per-tenant —
  // foreign tenants' spans must not pollute the attribution sums.
  std::set<std::uint64_t> client_traces;
  for (const obs::TraceSpan& span : client_spans) {
    if (span.name != kClientBatchSpan) continue;
    const LinkKey key = parse_link(span, "span_id");
    if (key.usable()) client_traces.insert(key.trace_id);
  }

  // Index server-side spans by (trace_id, parent_span_id) -> names present.
  std::map<LinkKey, std::set<std::string>> server_children;
  for (const obs::TraceSpan& span : server_spans) {
    const LinkKey key = parse_link(span, "parent_span_id");
    if (!key.usable() || client_traces.count(key.trace_id) == 0) continue;
    server_children[key].insert(span.name);
    if (span.name == kServerQueueWaitSpan || span.name == kServerEncodeSpan ||
        span.name == kServerSendSpan) {
      v.server_span_seconds += span_seconds(span);
    }
  }
  // Client child spans by the batch span they decompose.
  std::map<LinkKey, std::set<std::string>> client_children;
  for (const obs::TraceSpan& span : client_spans) {
    if (span.name == kClientEncodeSpan || span.name == kClientWaitSpan ||
        span.name == kClientDecodeSpan) {
      v.client_span_seconds += span_seconds(span);
      const LinkKey key = parse_link(span, "parent_span_id");
      if (key.usable()) client_children[key].insert(span.name);
    }
  }

  for (const obs::TraceSpan& span : client_spans) {
    if (span.name != kClientBatchSpan) continue;
    const LinkKey key = parse_link(span, "span_id");
    if (!key.usable()) continue;
    ++v.client_batches;
    const auto sit = server_children.find(key);
    const bool has_server_next =
        sit != server_children.end() && sit->second.count(kServerNextSpan) > 0;
    if (!has_server_next) continue;
    ++v.linked;
    const auto cit = client_children.find(key);
    const bool client_complete = cit != client_children.end() &&
                                 cit->second.count(kClientWaitSpan) > 0 &&
                                 cit->second.count(kClientDecodeSpan) > 0;
    const bool server_complete = sit->second.count(kServerQueueWaitSpan) > 0;
    if (client_complete && server_complete) ++v.decomposed;
  }
  v.decomposed_fraction =
      v.client_batches == 0
          ? 0.0
          : static_cast<double>(v.decomposed) /
                static_cast<double>(v.client_batches);

  v.client_hist_seconds = hist_sum(client_metrics, kClientEncodeSeconds) +
                          hist_sum(client_metrics, kClientWaitSeconds) +
                          hist_sum(client_metrics, kClientDecodeSeconds);
  v.server_hist_seconds = hist_sum(server_metrics, kServerQueueWaitSeconds) +
                          hist_sum(server_metrics, kServerEncodeSeconds) +
                          hist_sum(server_metrics, kServerSendSeconds);
  if (client_spans_dropped > 0 || server_spans_dropped > 0) {
    // A wrapped ring lost spans; the sums cannot agree and that is not an
    // instrumentation defect.
    v.histograms_consistent = true;
  } else {
    v.histograms_consistent =
        sums_agree(v.client_span_seconds, v.client_hist_seconds) &&
        sums_agree(v.server_span_seconds, v.server_hist_seconds);
  }
  return v;
}

}  // namespace sciprep::flow
