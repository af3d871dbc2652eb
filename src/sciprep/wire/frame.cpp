#include "sciprep/wire/frame.hpp"

#include <cstring>

#include "sciprep/common/crc.hpp"

namespace sciprep::wire {

namespace {

/// Fold a ByteReader position into a TruncatedError offset consistently.
[[noreturn]] void throw_truncated(std::string msg, std::size_t offset) {
  throw TruncatedError(std::move(msg), static_cast<std::uint64_t>(offset));
}

}  // namespace

const char* frame_type_name(FrameType type) noexcept {
  switch (type) {
    case FrameType::kHello:
      return "HELLO";
    case FrameType::kWelcome:
      return "WELCOME";
    case FrameType::kAttach:
      return "ATTACH";
    case FrameType::kAttached:
      return "ATTACHED";
    case FrameType::kNext:
      return "NEXT";
    case FrameType::kBatch:
      return "BATCH";
    case FrameType::kEnd:
      return "END";
    case FrameType::kBeat:
      return "BEAT";
    case FrameType::kDetach:
      return "DETACH";
    case FrameType::kDetached:
      return "DETACHED";
    case FrameType::kError:
      return "ERROR";
    case FrameType::kClockSync:
      return "CLOCK_SYNC";
    case FrameType::kStats:
      return "STATS";
    case FrameType::kTrace:
      return "TRACE";
  }
  return "?";
}

ByteWriter begin_frame(Bytes reuse) {
  reuse.clear();  // keeps the capacity
  ByteWriter w(std::move(reuse));
  w.put<std::uint32_t>(kMagic);
  w.put<std::uint16_t>(kProtocolVersion);
  w.put<std::uint8_t>(0);   // type — patched by finish_frame()
  w.put<std::uint8_t>(0);   // flags — patched by finish_frame()
  w.put<std::uint32_t>(0);  // payload length — patched by finish_frame()
  return w;
}

Bytes finish_frame(ByteWriter&& w, FrameType type, std::uint8_t flags) {
  const std::size_t length = w.size() - kHeaderSize;
  if (length > kMaxPayload) {
    throw ConfigError(fmt("wire: payload of {} bytes exceeds the {} cap",
                          length, kMaxPayload));
  }
  w.patch<std::uint8_t>(6, static_cast<std::uint8_t>(type));
  w.patch<std::uint8_t>(7, flags);
  w.patch<std::uint32_t>(8, static_cast<std::uint32_t>(length));
  // The CRC covers everything after the magic: version, type, flags, length,
  // and payload. A flipped bit in the magic fails the magic check instead.
  const ByteSpan covered = ByteSpan(w.bytes()).subspan(4);
  w.put<std::uint32_t>(crc32c(covered));
  return std::move(w).take();
}

std::uint32_t decode_header(ByteSpan header) {
  if (header.size() < kHeaderSize) {
    throw_truncated(fmt("wire: frame header truncated: {} of {} bytes",
                        header.size(), kHeaderSize),
                    header.size());
  }
  ByteReader r(header);
  const auto magic = r.get<std::uint32_t>();
  if (magic != kMagic) {
    throw_format("wire: bad frame magic 0x{:x} (want 0x{:x})", magic, kMagic);
  }
  r.skip(4);  // version/type/flags: judged after the CRC, by decode_frame_view
  const auto length = r.get<std::uint32_t>();
  if (length > kMaxPayload) {
    throw_format("wire: declared payload of {} bytes exceeds the {} cap",
                 length, kMaxPayload);
  }
  return length;
}

FrameView decode_frame_view(ByteSpan data) {
  const std::uint32_t length = decode_header(data);
  const std::size_t total = kHeaderSize + length + kTrailerSize;
  if (data.size() < total) {
    throw_truncated(
        fmt("wire: frame truncated: envelope declares {} bytes, have {}",
            total, data.size()),
        data.size());
  }
  if (data.size() > total) {
    throw_format("wire: {} trailing bytes after a {}-byte frame",
                 data.size() - total, total);
  }
  const std::uint32_t stored_crc = [&] {
    std::uint32_t crc = 0;
    std::memcpy(&crc, data.data() + total - kTrailerSize, sizeof(crc));
    return crc;
  }();
  const std::uint32_t actual_crc =
      crc32c(data.subspan(4, kHeaderSize - 4 + length));
  if (stored_crc != actual_crc) {
    throw_format("wire: frame CRC mismatch: stored 0x{:x}, computed 0x{:x}",
                 stored_crc, actual_crc);
  }
  // Version and type are judged only once the CRC proves the bytes are what
  // the peer sent: a flipped version bit is corruption, a clean CRC with a
  // different version is a genuinely incompatible speaker.
  ByteReader r(data.subspan(4));
  const auto version = r.get<std::uint16_t>();
  if (version != kProtocolVersion) {
    throw ProtocolError(fmt("wire: protocol version {} not supported (this "
                            "build speaks version {})",
                            version, kProtocolVersion));
  }
  const auto type = r.get<std::uint8_t>();
  if (type < static_cast<std::uint8_t>(FrameType::kHello) ||
      type > kMaxFrameType) {
    throw ProtocolError(fmt("wire: unknown frame type {}", type));
  }
  FrameView view;
  view.type = static_cast<FrameType>(type);
  view.flags = r.get<std::uint8_t>();
  r.skip(4);  // length, already validated
  view.payload = r.get_bytes(length);
  return view;
}

// -- Payload schemas -------------------------------------------------------

void HelloPayload::encode_into(ByteWriter& w) const {
  w.put<std::uint32_t>(schema_version);
  w.put<std::uint64_t>(fingerprint);
  w.put_string(client);
}

HelloPayload HelloPayload::decode(ByteSpan data) {
  ByteReader r(data);
  HelloPayload p;
  p.schema_version = r.get<std::uint32_t>();
  p.fingerprint = r.get<std::uint64_t>();
  p.client = r.get_string();
  return p;
}

void WelcomePayload::encode_into(ByteWriter& w) const {
  w.put<std::uint32_t>(schema_version);
  w.put<std::uint64_t>(fingerprint);
}

WelcomePayload WelcomePayload::decode(ByteSpan data) {
  ByteReader r(data);
  WelcomePayload p;
  p.schema_version = r.get<std::uint32_t>();
  p.fingerprint = r.get<std::uint64_t>();
  return p;
}

void AttachPayload::encode_into(ByteWriter& w) const {
  w.put_string(tenant);
}

AttachPayload AttachPayload::decode(ByteSpan data) {
  ByteReader r(data);
  AttachPayload p;
  p.tenant = r.get_string();
  return p;
}

void AttachedPayload::encode_into(ByteWriter& w) const {
  w.put<std::int32_t>(session);
  w.put<std::uint8_t>(admission);
  w.put<std::uint8_t>(resumed);
  w.put<std::uint64_t>(resume_seq);
}

AttachedPayload AttachedPayload::decode(ByteSpan data) {
  ByteReader r(data);
  AttachedPayload p;
  p.session = r.get<std::int32_t>();
  p.admission = r.get<std::uint8_t>();
  p.resumed = r.get<std::uint8_t>();
  p.resume_seq = r.get<std::uint64_t>();
  return p;
}

void encode_trace_context(ByteWriter& w, const TraceContext& ctx) {
  w.put<std::uint8_t>(kTraceContextVersion);
  w.put<std::uint64_t>(ctx.trace_id);
  w.put<std::uint64_t>(ctx.parent_span_id);
}

TraceContext decode_trace_context(ByteSpan& payload) {
  if (payload.size() < kTraceContextBytes) {
    throw_format(
        "wire: trace-context extension truncated: {} of {} bytes",
        payload.size(), kTraceContextBytes);
  }
  ByteReader r(payload.first(kTraceContextBytes));
  const auto version = r.get<std::uint8_t>();
  if (version != kTraceContextVersion) {
    throw ProtocolError(
        fmt("wire: trace-context extension version {} not supported (this "
            "build speaks version {})",
            version, kTraceContextVersion));
  }
  TraceContext ctx;
  ctx.trace_id = r.get<std::uint64_t>();
  ctx.parent_span_id = r.get<std::uint64_t>();
  payload = payload.subspan(kTraceContextBytes);
  return ctx;
}

void NextPayload::encode_into(ByteWriter& w) const {
  if (trace) encode_trace_context(w, *trace);
  w.put<std::uint64_t>(ack);
}

NextPayload NextPayload::decode(ByteSpan data, std::uint8_t flags) {
  NextPayload p;
  if ((flags & kFlagTraceContext) != 0) p.trace = decode_trace_context(data);
  ByteReader r(data);
  p.ack = r.get<std::uint64_t>();
  return p;
}

void BatchPayload::encode_into(ByteWriter& w) const {
  w.put<std::uint64_t>(seq);
  w.put<std::uint64_t>(batch.epoch);
  w.put<std::uint64_t>(batch.index_in_epoch);
  w.put<std::uint64_t>(batch.bytes_at_rest);
  SCIPREP_ASSERT(batch.samples.size() == batch.order_positions.size());
  w.put<std::uint32_t>(static_cast<std::uint32_t>(batch.samples.size()));
  for (const codec::TensorF16& sample : batch.samples) {
    w.put<std::uint32_t>(static_cast<std::uint32_t>(sample.shape.size()));
    for (const std::uint64_t dim : sample.shape) w.put<std::uint64_t>(dim);
    w.put<std::uint64_t>(static_cast<std::uint64_t>(sample.values.size()));
    w.put_bytes(as_bytes(sample.values));
    w.put<std::uint32_t>(static_cast<std::uint32_t>(sample.float_labels.size()));
    w.put_bytes(as_bytes(sample.float_labels));
    w.put<std::uint32_t>(static_cast<std::uint32_t>(sample.byte_labels.size()));
    w.put_bytes(ByteSpan(sample.byte_labels));
  }
  for (const std::uint64_t pos : batch.order_positions) {
    w.put<std::uint64_t>(pos);
  }
}

std::uint64_t BatchPayload::decode(ByteSpan data, pipeline::Batch& out) {
  ByteReader r(data);
  const auto seq = r.get<std::uint64_t>();
  out.epoch = r.get<std::uint64_t>();
  out.index_in_epoch = r.get<std::uint64_t>();
  out.bytes_at_rest = r.get<std::uint64_t>();
  const auto count = r.get<std::uint32_t>();
  // Every declared count is bounded by the bytes actually present before any
  // resize sized from it: a body lying about its array lengths fails typed
  // (FormatError) instead of oversizing a vector. The checks divide rather
  // than multiply so a hostile 2^64-scale count cannot overflow.
  constexpr std::size_t kMinSampleBytes = 4 + 8 + 4 + 4;  // all-empty sample
  if (count > r.remaining() / kMinSampleBytes) {
    throw_format("wire: batch declares {} samples but only {} payload bytes "
                 "remain",
                 count, r.remaining());
  }
  // resize() to a vector's current size neither allocates nor touches its
  // elements; each memcpy below then overwrites them.
  out.samples.resize(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    codec::TensorF16& sample = out.samples[i];
    const auto rank = r.get<std::uint32_t>();
    if (rank > r.remaining() / sizeof(std::uint64_t)) {
      throw_format("wire: sample {} declares rank {} with {} bytes remaining",
                   i, rank, r.remaining());
    }
    sample.shape.resize(rank);
    for (std::uint64_t& dim : sample.shape) dim = r.get<std::uint64_t>();
    const auto value_count = r.get<std::uint64_t>();
    if (value_count > r.remaining() / sizeof(Half)) {
      throw_format(
          "wire: sample {} declares {} values with {} bytes remaining", i,
          value_count, r.remaining());
    }
    const ByteSpan values =
        r.get_bytes(static_cast<std::size_t>(value_count) * sizeof(Half));
    sample.values.resize(static_cast<std::size_t>(value_count));
    if (!values.empty()) {
      std::memcpy(sample.values.data(), values.data(), values.size());
    }
    const auto float_count = r.get<std::uint32_t>();
    if (float_count > r.remaining() / sizeof(float)) {
      throw_format(
          "wire: sample {} declares {} float labels with {} bytes remaining",
          i, float_count, r.remaining());
    }
    const ByteSpan floats =
        r.get_bytes(static_cast<std::size_t>(float_count) * sizeof(float));
    sample.float_labels.resize(float_count);
    if (!floats.empty()) {
      std::memcpy(sample.float_labels.data(), floats.data(), floats.size());
    }
    const auto byte_count = r.get<std::uint32_t>();
    const ByteSpan bytes = r.get_bytes(byte_count);
    sample.byte_labels.assign(bytes.begin(), bytes.end());
  }
  out.order_positions.resize(count);
  for (std::uint64_t& pos : out.order_positions) {
    pos = r.get<std::uint64_t>();
  }
  if (!r.done()) {
    throw_format("wire: {} trailing bytes after a batch payload",
                 r.remaining());
  }
  return seq;
}

void DetachedPayload::encode_into(ByteWriter& w) const {
  w.put<std::uint64_t>(batches);
  w.put<std::uint64_t>(samples);
  w.put<std::uint64_t>(attaches);
  w.put<std::uint64_t>(sweeps);
  w.put<std::uint32_t>(digest_crc);
}

DetachedPayload DetachedPayload::decode(ByteSpan data) {
  ByteReader r(data);
  DetachedPayload p;
  p.batches = r.get<std::uint64_t>();
  p.samples = r.get<std::uint64_t>();
  p.attaches = r.get<std::uint64_t>();
  p.sweeps = r.get<std::uint64_t>();
  p.digest_crc = r.get<std::uint32_t>();
  return p;
}

void ErrorPayload::encode_into(ByteWriter& w) const {
  w.put<std::uint8_t>(error_class);
  w.put_string(message);
}

ErrorPayload ErrorPayload::decode(ByteSpan data) {
  ByteReader r(data);
  ErrorPayload p;
  p.error_class = r.get<std::uint8_t>();
  p.message = r.get_string();
  return p;
}

// -- Flow extensions -------------------------------------------------------

void ClockSyncPayload::encode_into(ByteWriter& w) const {
  w.put<std::uint64_t>(t_client_ns);
  w.put<std::uint64_t>(t_server_ns);
}

ClockSyncPayload ClockSyncPayload::decode(ByteSpan data) {
  ByteReader r(data);
  ClockSyncPayload p;
  p.t_client_ns = r.get<std::uint64_t>();
  p.t_server_ns = r.get<std::uint64_t>();
  return p;
}

void StatsPayload::encode_into(ByteWriter& w) const {
  w.put_bytes(as_bytes(
      obs::fleet_line(line.scope, 0, line.t, line.totals, line.delta)));
}

StatsPayload StatsPayload::decode(ByteSpan data) {
  StatsPayload p;
  const std::string_view text(reinterpret_cast<const char*>(data.data()),
                              data.size());
  if (!obs::parse_fleet_line(text, p.line)) {
    throw_format("wire: STATS payload of {} bytes is not a fleet.v1 line",
                 data.size());
  }
  return p;
}

void TraceRequestPayload::encode_into(ByteWriter& w) const {
  w.put<std::uint32_t>(max_spans);
}

TraceRequestPayload TraceRequestPayload::decode(ByteSpan data) {
  ByteReader r(data);
  TraceRequestPayload p;
  p.max_spans = r.get<std::uint32_t>();
  return p;
}

void TracePayload::encode_into(ByteWriter& w) const {
  w.put<std::int64_t>(pid);
  w.put_string(process_name);
  w.put<std::uint64_t>(spans_dropped);
  w.put<std::uint32_t>(static_cast<std::uint32_t>(spans.size()));
  for (const obs::TraceSpan& span : spans) {
    w.put_string(span.name);
    w.put_string(span.category);
    w.put<std::uint32_t>(span.thread);
    w.put<std::uint64_t>(span.t_start_ns);
    w.put<std::uint64_t>(span.t_end_ns);
    w.put_string(span.args_json);
  }
}

TracePayload TracePayload::decode(ByteSpan data) {
  ByteReader r(data);
  TracePayload p;
  p.pid = r.get<std::int64_t>();
  p.process_name = r.get_string();
  p.spans_dropped = r.get<std::uint64_t>();
  const auto count = r.get<std::uint32_t>();
  // Bound the declared count by the bytes present before reserving.
  constexpr std::size_t kMinSpanBytes = 4 + 4 + 4 + 8 + 8 + 4;
  if (count > r.remaining() / kMinSpanBytes) {
    throw_format("wire: trace payload declares {} spans but only {} bytes "
                 "remain",
                 count, r.remaining());
  }
  p.spans.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    obs::TraceSpan span;
    span.name = r.get_string();
    span.category = r.get_string();
    span.thread = r.get<std::uint32_t>();
    span.t_start_ns = r.get<std::uint64_t>();
    span.t_end_ns = r.get<std::uint64_t>();
    span.args_json = r.get_string();
    p.spans.push_back(std::move(span));
  }
  if (!r.done()) {
    throw_format("wire: {} trailing bytes after a trace payload",
                 r.remaining());
  }
  return p;
}

void throw_error_payload(const ErrorPayload& payload) {
  const std::string msg = fmt("wire: server error: {}", payload.message);
  switch (static_cast<ErrorClass>(payload.error_class)) {
    case ErrorClass::kTransient:
      throw TransientError(msg);
    case ErrorClass::kCorrupt:
      throw FormatError(msg);
    case ErrorClass::kConfig:
      throw ConfigError(msg);
    case ErrorClass::kCancelled:
      throw CancelledError(msg);
    case ErrorClass::kFatal:
      break;
  }
  throw Error(msg);
}

}  // namespace sciprep::wire
