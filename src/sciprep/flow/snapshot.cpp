#include "sciprep/flow/snapshot.hpp"

namespace sciprep::flow {

namespace {

void check_count(std::uint32_t n, const char* what) {
  if (n > kMaxSnapshotEntries) {
    throw_format("snapshot {} section declares {} entries (cap {})", what, n,
                 kMaxSnapshotEntries);
  }
}

}  // namespace

void encode_snapshot_into(ByteWriter& w, const obs::MetricsSnapshot& snap) {
  w.put<std::uint8_t>(kSnapshotCodecVersion);
  w.put<std::uint32_t>(static_cast<std::uint32_t>(snap.counters.size()));
  for (const auto& [name, value] : snap.counters) {
    w.put_string(name);
    w.put<std::uint64_t>(value);
  }
  w.put<std::uint32_t>(static_cast<std::uint32_t>(snap.gauges.size()));
  for (const auto& [name, g] : snap.gauges) {
    w.put_string(name);
    w.put<std::int64_t>(g.value);
    w.put<std::int64_t>(g.high_watermark);
  }
  w.put<std::uint32_t>(static_cast<std::uint32_t>(snap.histograms.size()));
  for (const auto& [name, h] : snap.histograms) {
    w.put_string(name);
    w.put<std::uint64_t>(h.count);
    w.put<double>(h.sum);
  }
}

Bytes encode_snapshot(const obs::MetricsSnapshot& snap) {
  ByteWriter w;
  encode_snapshot_into(w, snap);
  return std::move(w).take();
}

obs::MetricsSnapshot decode_snapshot(ByteReader& r) {
  const auto version = r.get<std::uint8_t>();
  if (version != kSnapshotCodecVersion) {
    throw_format("snapshot codec version {} (expected {})", version,
                 kSnapshotCodecVersion);
  }
  obs::MetricsSnapshot snap;
  const auto n_counters = r.get<std::uint32_t>();
  check_count(n_counters, "counter");
  for (std::uint32_t i = 0; i < n_counters; ++i) {
    std::string name = r.get_string();
    snap.counters[std::move(name)] = r.get<std::uint64_t>();
  }
  const auto n_gauges = r.get<std::uint32_t>();
  check_count(n_gauges, "gauge");
  for (std::uint32_t i = 0; i < n_gauges; ++i) {
    std::string name = r.get_string();
    obs::MetricsSnapshot::GaugeValue g;
    g.value = r.get<std::int64_t>();
    g.high_watermark = r.get<std::int64_t>();
    snap.gauges[std::move(name)] = g;
  }
  const auto n_hists = r.get<std::uint32_t>();
  check_count(n_hists, "histogram");
  for (std::uint32_t i = 0; i < n_hists; ++i) {
    std::string name = r.get_string();
    obs::MetricsSnapshot::HistogramSummary h;
    h.count = r.get<std::uint64_t>();
    h.sum = r.get<double>();
    snap.histograms[std::move(name)] = h;
  }
  return snap;
}

obs::MetricsSnapshot decode_snapshot(ByteSpan data) {
  ByteReader r(data);
  obs::MetricsSnapshot snap = decode_snapshot(r);
  if (!r.done()) {
    throw_format("snapshot payload has {} trailing bytes", r.remaining());
  }
  return snap;
}

}  // namespace sciprep::flow
