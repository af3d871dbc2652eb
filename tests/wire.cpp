// Tests for sciprep::wire: the framed wire protocol (roundtrips, layout,
// hostile-input fuzz — truncation at every offset, every single-bit flip,
// huge declared lengths, wrong version/type under a valid CRC), the AF_UNIX
// socket layer (deadlines, typed connect errors), and the WireServer/
// WireClient pair end-to-end against a real DataService — including
// exactly-once redelivery under injected frame corruption and connection
// drops, hostile-peer containment, and overload surfacing as DEGRADED.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "sciprep/codec/cam_codec.hpp"
#include "sciprep/common/crc.hpp"
#include "sciprep/common/error.hpp"
#include "sciprep/common/format.hpp"
#include "sciprep/common/fp16.hpp"
#include "sciprep/common/rng.hpp"
#include "sciprep/common/sysio.hpp"
#include "sciprep/data/cam_gen.hpp"
#include "sciprep/fault/fault.hpp"
#include "sciprep/flow/merge.hpp"
#include "sciprep/pipeline/pipeline.hpp"
#include "sciprep/serve/service.hpp"
#include "sciprep/wire/client.hpp"
#include "sciprep/wire/frame.hpp"
#include "sciprep/wire/server.hpp"
#include "sciprep/wire/socket.hpp"

namespace sciprep::wire {
namespace {

using pipeline::Batch;
using pipeline::InMemoryDataset;
using pipeline::StorageFormat;

// --- Frame codec: roundtrips and layout ------------------------------------

/// Arbitrary payload bytes, sent through the same encode_into() seam as the
/// real payload structs.
struct RawPayload {
  ByteSpan bytes;
  void encode_into(ByteWriter& w) const { w.put_bytes(bytes); }
};

/// A frame's fields with an owned payload, for building test envelopes.
struct RawFrame {
  FrameType type = FrameType::kBeat;
  std::uint8_t flags = 0;
  Bytes payload;
};

RawFrame make_frame(FrameType type, std::uint8_t flags, std::size_t n) {
  RawFrame frame;
  frame.type = type;
  frame.flags = flags;
  frame.payload.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    frame.payload[i] = static_cast<std::uint8_t>(i * 31 + 7);
  }
  return frame;
}

/// The envelope send_frame() writes for `frame`.
Bytes seal(const RawFrame& frame) {
  ByteWriter w = begin_frame();
  RawPayload{frame.payload}.encode_into(w);
  return finish_frame(std::move(w), frame.type, frame.flags);
}

/// A payload struct's bytes, as encode_into() writes them into a frame.
template <typename Payload>
Bytes payload_bytes(const Payload& payload) {
  ByteWriter w;
  payload.encode_into(w);
  return std::move(w).take();
}

TEST(WireFrame, RoundtripsEveryTypeAndFlagCombination) {
  for (int t = static_cast<int>(FrameType::kHello);
       t <= static_cast<int>(FrameType::kTrace); ++t) {
    for (const std::size_t n : {std::size_t{0}, std::size_t{1},
                                std::size_t{13}, std::size_t{4096}}) {
      const RawFrame frame =
          make_frame(static_cast<FrameType>(t), t % 2 ? kFlagDegraded : 0, n);
      const Bytes encoded = seal(frame);
      ASSERT_EQ(encoded.size(), kHeaderSize + n + kTrailerSize);
      const FrameView back = decode_frame_view(encoded);
      EXPECT_EQ(back.type, frame.type);
      EXPECT_EQ(back.flags, frame.flags);
      EXPECT_EQ(Bytes(back.payload.begin(), back.payload.end()), frame.payload);
    }
  }
}

TEST(WireFrame, EnvelopeLayoutMatchesTheDocumentedOffsets) {
  const RawFrame frame = make_frame(FrameType::kBatch, kFlagDegraded, 5);
  const Bytes e = seal(frame);
  // magic "SWIR" little-endian at offset 0.
  EXPECT_EQ(e[0], 'S');
  EXPECT_EQ(e[1], 'W');
  EXPECT_EQ(e[2], 'I');
  EXPECT_EQ(e[3], 'R');
  std::uint16_t version = 0;
  std::memcpy(&version, e.data() + 4, 2);
  EXPECT_EQ(version, kProtocolVersion);
  EXPECT_EQ(e[6], static_cast<std::uint8_t>(FrameType::kBatch));
  EXPECT_EQ(e[7], kFlagDegraded);
  std::uint32_t length = 0;
  std::memcpy(&length, e.data() + 8, 4);
  EXPECT_EQ(length, 5u);
  // The trailer CRC covers [4, 12 + N): everything but the magic.
  std::uint32_t stored = 0;
  std::memcpy(&stored, e.data() + e.size() - kTrailerSize, 4);
  EXPECT_EQ(stored,
            crc32c(ByteSpan(e.data() + 4, kHeaderSize - 4 + frame.payload.size())));
}

TEST(WireFrame, TruncationAtEveryOffsetIsATypedTruncatedError) {
  const Bytes full = seal(make_frame(FrameType::kBatch, 0, 64));
  for (std::size_t n = 0; n < full.size(); ++n) {
    const ByteSpan prefix(full.data(), n);
    EXPECT_THROW((void)decode_frame_view(prefix), TruncatedError)
        << "prefix length " << n;
  }
}

TEST(WireFrame, EverySingleBitFlipIsDetected) {
  const Bytes full = seal(make_frame(FrameType::kNext, 0, 32));
  for (std::size_t bit = 0; bit < full.size() * 8; ++bit) {
    Bytes flipped = full;
    flipped[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    try {
      (void)decode_frame_view(flipped);
      FAIL() << "bit " << bit << " flipped undetected";
    } catch (const TruncatedError&) {
      // A flip in the length field can make the frame claim more payload
      // than was captured — still typed, still detected.
    } catch (const FormatError&) {
      // Magic, version, type, flags, payload, or CRC damage.
    }
  }
}

TEST(WireFrame, HugeDeclaredLengthIsRejectedBeforeAllocation) {
  Bytes header(kHeaderSize, 0);
  header[0] = 'S';
  header[1] = 'W';
  header[2] = 'I';
  header[3] = 'R';
  std::memcpy(header.data() + 4, &kProtocolVersion, 2);
  header[6] = static_cast<std::uint8_t>(FrameType::kBeat);
  const std::uint32_t huge = 0xFFFFFFFFu;
  std::memcpy(header.data() + 8, &huge, 4);
  EXPECT_THROW((void)decode_header(header), FormatError);
  EXPECT_THROW((void)decode_frame_view(header), FormatError);
}

TEST(WireFrame, WrongMagicIsFormatError) {
  Bytes e = seal(make_frame(FrameType::kBeat, 0, 0));
  e[0] = 'X';
  EXPECT_THROW((void)decode_frame_view(e), FormatError);
  EXPECT_THROW((void)decode_header(e), FormatError);
}

/// Re-seal a tampered envelope with a freshly computed, *valid* CRC so the
/// tampered field survives the integrity check and must be judged on its
/// semantics.
void reseal(Bytes& e) {
  const std::uint32_t crc = crc32c(
      ByteSpan(e.data() + 4, e.size() - 4 - kTrailerSize));
  std::memcpy(e.data() + e.size() - kTrailerSize, &crc, 4);
}

TEST(WireFrame, WrongVersionWithValidCrcIsProtocolError) {
  Bytes e = seal(make_frame(FrameType::kBeat, 0, 4));
  const std::uint16_t other = kProtocolVersion + 1;
  std::memcpy(e.data() + 4, &other, 2);
  reseal(e);
  EXPECT_THROW((void)decode_frame_view(e), ProtocolError);
}

TEST(WireFrame, UnknownTypeWithValidCrcIsProtocolError) {
  for (const std::uint8_t type : {std::uint8_t{0},
                                  std::uint8_t{kMaxFrameType + 1},
                                  std::uint8_t{0xFF}}) {
    Bytes e = seal(make_frame(FrameType::kBeat, 0, 4));
    e[6] = type;
    reseal(e);
    EXPECT_THROW((void)decode_frame_view(e), ProtocolError) << int(type);
  }
}

TEST(WireFrame, TrailingGarbageIsFormatError) {
  Bytes e = seal(make_frame(FrameType::kBeat, 0, 4));
  e.push_back(0xAB);
  EXPECT_THROW((void)decode_frame_view(e), FormatError);
}

// --- Payload schemas --------------------------------------------------------

TEST(WirePayload, HandshakePayloadsRoundtrip) {
  HelloPayload hello;
  hello.schema_version = 3;
  hello.fingerprint = 0xDEADBEEFCAFE1234ull;
  hello.client = "test-client/9";
  const HelloPayload h = HelloPayload::decode(payload_bytes(hello));
  EXPECT_EQ(h.schema_version, hello.schema_version);
  EXPECT_EQ(h.fingerprint, hello.fingerprint);
  EXPECT_EQ(h.client, hello.client);

  WelcomePayload welcome;
  welcome.schema_version = 2;
  welcome.fingerprint = 77;
  const WelcomePayload w = WelcomePayload::decode(payload_bytes(welcome));
  EXPECT_EQ(w.schema_version, 2u);
  EXPECT_EQ(w.fingerprint, 77u);

  AttachPayload attach;
  attach.tenant = "tenant42";
  EXPECT_EQ(AttachPayload::decode(payload_bytes(attach)).tenant, "tenant42");

  AttachedPayload attached;
  attached.session = 7;
  attached.admission = 1;
  attached.resumed = 1;
  attached.resume_seq = 41;
  const AttachedPayload a = AttachedPayload::decode(payload_bytes(attached));
  EXPECT_EQ(a.session, 7);
  EXPECT_EQ(a.admission, 1);
  EXPECT_EQ(a.resumed, 1);
  EXPECT_EQ(a.resume_seq, 41u);

  NextPayload next;
  next.ack = 123456789;
  EXPECT_EQ(next.flags(), 0);
  EXPECT_EQ(NextPayload::decode(payload_bytes(next), next.flags()).ack,
            123456789u);
  // A traced NEXT: the extension leads the ack, and the frame flag says so.
  next.trace = TraceContext{0xABCDEF, 8};
  EXPECT_EQ(next.flags(), kFlagTraceContext);
  const NextPayload traced =
      NextPayload::decode(payload_bytes(next), next.flags());
  ASSERT_TRUE(traced.trace.has_value());
  EXPECT_EQ(traced.trace->trace_id, 0xABCDEFu);
  EXPECT_EQ(traced.trace->parent_span_id, 8u);
  EXPECT_EQ(traced.ack, 123456789u);

  DetachedPayload detached;
  detached.batches = 8;
  detached.samples = 32;
  detached.attaches = 3;
  detached.sweeps = 1;
  detached.digest_crc = 0xABCD1234u;
  const DetachedPayload d = DetachedPayload::decode(payload_bytes(detached));
  EXPECT_EQ(d.batches, 8u);
  EXPECT_EQ(d.samples, 32u);
  EXPECT_EQ(d.attaches, 3u);
  EXPECT_EQ(d.sweeps, 1u);
  EXPECT_EQ(d.digest_crc, 0xABCD1234u);
}

Batch make_batch() {
  Batch batch;
  batch.epoch = 2;
  batch.index_in_epoch = 5;
  batch.bytes_at_rest = 4096;
  for (int s = 0; s < 3; ++s) {
    codec::TensorF16 t;
    t.shape = {2, 4};
    for (int i = 0; i < 8; ++i) {
      t.values.push_back(Half(static_cast<float>(s * 8 + i) * 0.25F));
    }
    t.float_labels = {1.5F * static_cast<float>(s), -2.0F};
    t.byte_labels = {static_cast<std::uint8_t>(s), 0xFE};
    batch.samples.push_back(std::move(t));
    batch.order_positions.push_back(static_cast<std::uint64_t>(10 + s));
  }
  return batch;
}

/// A valid batch unlike make_batch() in every count and size: more samples,
/// other ranks, longer value and label arrays. Decoding into a batch filled
/// from this one exercises every shrink and overwrite of an in-place decode.
Batch make_other_batch() {
  Batch batch;
  batch.epoch = 7;
  batch.index_in_epoch = 1;
  batch.bytes_at_rest = 123;
  for (int s = 0; s < 5; ++s) {
    codec::TensorF16 t;
    t.shape = {3, 2, 5};
    for (int i = 0; i < 30; ++i) {
      t.values.push_back(Half(-static_cast<float>(s * 30 + i)));
    }
    t.float_labels = {9.0F, 8.0F, 7.0F, 6.0F};
    t.byte_labels = {1, 2, 3, 4, 5, 6};
    batch.samples.push_back(std::move(t));
    batch.order_positions.push_back(static_cast<std::uint64_t>(100 + s));
  }
  return batch;
}

/// `out` after an in-place decode of `bytes` into a batch that `prefill`
/// (another payload's bytes) filled first.
Batch decode_over(ByteSpan prefill, ByteSpan bytes) {
  Batch out;
  (void)BatchPayload::decode(prefill, out);
  (void)BatchPayload::decode(bytes, out);
  return out;
}

void expect_same_batch(const Batch& y, const Batch& x) {
  EXPECT_EQ(y.epoch, x.epoch);
  EXPECT_EQ(y.index_in_epoch, x.index_in_epoch);
  EXPECT_EQ(y.bytes_at_rest, x.bytes_at_rest);
  EXPECT_EQ(y.order_positions, x.order_positions);
  ASSERT_EQ(y.samples.size(), x.samples.size());
  for (std::size_t s = 0; s < y.samples.size(); ++s) {
    const codec::TensorF16& a = x.samples[s];
    const codec::TensorF16& b = y.samples[s];
    EXPECT_EQ(b.shape, a.shape);
    ASSERT_EQ(b.values.size(), a.values.size());
    EXPECT_EQ(std::memcmp(b.values.data(), a.values.data(),
                          a.values.size() * sizeof(Half)),
              0);
    EXPECT_EQ(b.float_labels, a.float_labels);
    EXPECT_EQ(b.byte_labels, a.byte_labels);
  }
}

TEST(WirePayload, BatchPayloadRoundtripsBitIdentically) {
  BatchPayload payload;
  payload.seq = 99;
  payload.batch = make_batch();
  const Bytes bytes = payload_bytes(payload);
  Batch back;
  EXPECT_EQ(BatchPayload::decode(bytes, back), 99u);
  expect_same_batch(back, payload.batch);

  // In place over a batch with more, larger samples (every vector shrinks)
  // and the reverse (every vector grows): the result is the same batch.
  BatchPayload other;
  other.seq = 3;
  other.batch = make_other_batch();
  const Bytes other_bytes = payload_bytes(other);
  expect_same_batch(decode_over(other_bytes, bytes), payload.batch);
  expect_same_batch(decode_over(bytes, other_bytes), other.batch);
}

TEST(WirePayload, BatchPayloadBytesMatchTheGoldenCrc) {
  // CRC32C of this batch's payload under batch schema version 1: a change
  // to how frames are built or sent must not move a byte of it.
  constexpr std::uint32_t kGoldenCrc = 0xEC3F6058u;
  BatchPayload payload;
  payload.seq = 99;
  payload.batch = make_batch();
  const Bytes bytes = payload_bytes(payload);
  EXPECT_EQ(bytes.size(), 246u);
  EXPECT_EQ(crc32c(bytes), kGoldenCrc);

  // The same bytes inside a frame, as the server's send path builds it.
  ByteWriter w = begin_frame();
  payload.encode_into(w);
  const Bytes frame = finish_frame(std::move(w), FrameType::kBatch, 0);
  EXPECT_EQ(crc32c(decode_frame_view(frame).payload), kGoldenCrc);
}

TEST(WirePayload, FuzzedBatchPayloadBytesFailTypedNeverCrash) {
  BatchPayload payload;
  payload.seq = 1;
  payload.batch = make_batch();
  const Bytes valid = payload_bytes(payload);
  BatchPayload other;
  other.batch = make_other_batch();
  const Bytes other_bytes = payload_bytes(other);
  std::uint64_t state = 0xC0FFEE;
  int decoded = 0;
  for (int iter = 0; iter < 4000; ++iter) {
    Bytes fuzzed = valid;
    // Mutate 1..8 positions: random byte overwrites biased toward the
    // length-bearing prefix, plus occasional truncation/extension.
    const int edits = 1 + static_cast<int>(splitmix64(state) % 8);
    for (int e = 0; e < edits; ++e) {
      const std::size_t at = splitmix64(state) % fuzzed.size();
      fuzzed[at] = static_cast<std::uint8_t>(splitmix64(state));
    }
    if (splitmix64(state) % 4 == 0) {
      fuzzed.resize(splitmix64(state) % (valid.size() + 16));
    }
    // Each mutation is decoded into a fresh batch and, in place, into one
    // filled from a different valid batch: both reject it the same way.
    bool fresh_ok = true;
    try {
      Batch back;
      (void)BatchPayload::decode(fuzzed, back);
    } catch (const FormatError&) {
      fresh_ok = false;  // typed rejection: what hostile input must produce
    }
    bool reused_ok = true;
    try {
      (void)decode_over(other_bytes, fuzzed);
    } catch (const FormatError&) {
      reused_ok = false;
    }
    EXPECT_EQ(reused_ok, fresh_ok) << "iteration " << iter;
    decoded += fresh_ok ? 1 : 0;  // a valid mutation: fine, content differs
  }
  // Overwhelmingly these mutations must be rejected; a handful may keep the
  // structure intact (e.g. edits inside sample values).
  EXPECT_LT(decoded, 4000);
}

TEST(WirePayload, TruncatedBatchPayloadAtEveryOffsetFailsTyped) {
  BatchPayload payload;
  payload.seq = 1;
  payload.batch = make_batch();
  const Bytes valid = payload_bytes(payload);
  BatchPayload other;
  other.batch = make_other_batch();
  const Bytes other_bytes = payload_bytes(other);
  for (std::size_t n = 0; n < valid.size(); ++n) {
    const ByteSpan prefix(valid.data(), n);
    Batch fresh;
    EXPECT_THROW((void)BatchPayload::decode(prefix, fresh), FormatError)
        << "prefix " << n;
    EXPECT_THROW((void)decode_over(other_bytes, prefix), FormatError)
        << "prefix " << n << " into a reused batch";
  }
}

TEST(WirePayload, ErrorPayloadRethrowsTheTaxonomy) {
  auto roundtrip_throw = [](ErrorClass cls) {
    ErrorPayload payload;
    payload.error_class = static_cast<std::uint8_t>(cls);
    payload.message = "boom";
    throw_error_payload(ErrorPayload::decode(payload_bytes(payload)));
  };
  EXPECT_THROW(roundtrip_throw(ErrorClass::kTransient), TransientError);
  EXPECT_THROW(roundtrip_throw(ErrorClass::kCorrupt), FormatError);
  EXPECT_THROW(roundtrip_throw(ErrorClass::kConfig), ConfigError);
  EXPECT_THROW(roundtrip_throw(ErrorClass::kCancelled), CancelledError);
  EXPECT_THROW(roundtrip_throw(ErrorClass::kFatal), Error);
}

// --- Flow extensions: trace context + control payloads ----------------------

TEST(WireTraceContext, RoundtripsAndAdvancesPastTheExtension) {
  ByteWriter w;
  encode_trace_context(w, {0xA1B2C3D4E5F60718ull, 42});
  w.put<std::uint32_t>(0xCAFEBABE);  // the NEXT payload proper
  const Bytes buf = std::move(w).take();
  ByteSpan view(buf);
  const TraceContext ctx = decode_trace_context(view);
  EXPECT_EQ(ctx.trace_id, 0xA1B2C3D4E5F60718ull);
  EXPECT_EQ(ctx.parent_span_id, 42u);
  // The view advanced exactly past the extension; the payload is intact.
  EXPECT_EQ(view.size(), 4u);
  std::uint32_t rest = 0;
  std::memcpy(&rest, view.data(), 4);
  EXPECT_EQ(rest, 0xCAFEBABEu);
}

TEST(WireTraceContext, TruncationAtEveryOffsetIsFormatError) {
  ByteWriter w;
  encode_trace_context(w, {1, 2});
  const Bytes full = std::move(w).take();
  ASSERT_EQ(full.size(), kTraceContextBytes);
  for (std::size_t n = 0; n < full.size(); ++n) {
    ByteSpan view(full.data(), n);
    EXPECT_THROW((void)decode_trace_context(view), FormatError)
        << "prefix " << n;
  }
}

TEST(WireTraceContext, UnknownVersionIsProtocolError) {
  for (const std::uint8_t version :
       {std::uint8_t{0}, std::uint8_t{kTraceContextVersion + 1},
        std::uint8_t{0xFF}}) {
    ByteWriter w;
    encode_trace_context(w, {1, 2});
    Bytes buf = std::move(w).take();
    buf[0] = version;
    ByteSpan view(buf);
    EXPECT_THROW((void)decode_trace_context(view), ProtocolError)
        << int(version);
  }
}

TEST(WireTraceContext, FuzzedExtensionBytesFailTypedNeverCrash) {
  std::uint64_t state = 0xF10'F10;
  int decoded = 0;
  for (int iter = 0; iter < 4000; ++iter) {
    Bytes noise(splitmix64(state) % (kTraceContextBytes + 8));
    for (std::uint8_t& b : noise) {
      b = static_cast<std::uint8_t>(splitmix64(state));
    }
    ByteSpan view(noise);
    try {
      (void)decode_trace_context(view);
      ++decoded;  // version byte happened to be valid and length sufficed
    } catch (const ProtocolError&) {
    } catch (const FormatError&) {
    }
  }
  EXPECT_LT(decoded, 4000);
}

TEST(WireFlowPayloads, ClockSyncAndTraceControlRoundtrip) {
  ClockSyncPayload sync;
  sync.t_client_ns = 123456789;
  sync.t_server_ns = 987654321;
  const ClockSyncPayload sync_back =
      ClockSyncPayload::decode(payload_bytes(sync));
  EXPECT_EQ(sync_back.t_client_ns, sync.t_client_ns);
  EXPECT_EQ(sync_back.t_server_ns, sync.t_server_ns);

  TraceRequestPayload req;
  req.max_spans = 64;
  EXPECT_EQ(TraceRequestPayload::decode(payload_bytes(req)).max_spans, 64u);

  TracePayload trace;
  trace.pid = 4242;
  trace.process_name = "trainer-server";
  trace.spans_dropped = 7;
  obs::TraceSpan span;
  span.name = "flow.server.next";
  span.category = "flow";
  span.thread = 3;
  span.t_start_ns = 1000;
  span.t_end_ns = 2000;
  span.args_json = "{\"trace_id\":1,\"parent_span_id\":2}";
  trace.spans.push_back(span);
  const TracePayload trace_back = TracePayload::decode(payload_bytes(trace));
  EXPECT_EQ(trace_back.pid, 4242);
  EXPECT_EQ(trace_back.process_name, "trainer-server");
  EXPECT_EQ(trace_back.spans_dropped, 7u);
  ASSERT_EQ(trace_back.spans.size(), 1u);
  EXPECT_EQ(trace_back.spans[0].name, span.name);
  EXPECT_EQ(trace_back.spans[0].category, span.category);
  EXPECT_EQ(trace_back.spans[0].thread, span.thread);
  EXPECT_EQ(trace_back.spans[0].t_start_ns, span.t_start_ns);
  EXPECT_EQ(trace_back.spans[0].t_end_ns, span.t_end_ns);
  EXPECT_EQ(trace_back.spans[0].args_json, span.args_json);
}

TEST(WireFlowPayloads, TruncatedTracePayloadAtEveryOffsetFailsTyped) {
  TracePayload trace;
  trace.pid = 1;
  trace.process_name = "p";
  obs::TraceSpan span;
  span.name = "s";
  span.category = "c";
  trace.spans.push_back(span);
  const Bytes valid = payload_bytes(trace);
  for (std::size_t n = 0; n < valid.size(); ++n) {
    EXPECT_THROW((void)TracePayload::decode(ByteSpan(valid.data(), n)),
                 FormatError)
        << "prefix " << n;
  }
}

// --- STATS: one fleet.v1 line ----------------------------------------------

StatsPayload sample_stats() {
  obs::MetricsSnapshot previous;
  previous.counters["pipeline.samples_total"] = 3584;
  previous.histograms["stage.decode_seconds"] = {56, 1.25};
  StatsPayload stats;
  stats.line.scope = "tenant/a";
  stats.line.t = 12.5;
  obs::MetricsSnapshot& totals = stats.line.totals;
  totals.counters["pipeline.samples_total"] = 4096;
  totals.counters["wire.frames_total"] = 17;
  totals.gauges["serve.queue_depth"] = {3, 12};
  totals.histograms["flow.client.wait_seconds"] = {64, 0.125};
  // 17 significant digits, as a sum of stage times usually has: the line
  // must carry them all for the sum to cross bit-exact.
  totals.histograms["stage.decode_seconds"] = {64, 1.4142135623730951};
  stats.line.delta = obs::snapshot_delta(totals, previous);
  return stats;
}

std::string text_of(const Bytes& bytes) {
  return {reinterpret_cast<const char*>(bytes.data()), bytes.size()};
}

TEST(WireStats, FleetLineRoundtripsThroughTheStatsPayload) {
  const StatsPayload stats = sample_stats();
  const Bytes bytes = payload_bytes(stats);
  // The payload is the fleet.v1 line itself — the same text
  // obs::fleet_line() writes for the exporter and --fleet-out.
  EXPECT_EQ(text_of(bytes),
            obs::fleet_line(stats.line.scope, 0, stats.line.t,
                            stats.line.totals, stats.line.delta));
  const StatsPayload back = StatsPayload::decode(bytes);
  EXPECT_EQ(back.line.scope, "tenant/a");
  EXPECT_DOUBLE_EQ(back.line.t, 12.5);
  EXPECT_EQ(back.line.totals.counters, stats.line.totals.counters);
  EXPECT_EQ(back.line.delta.counters, stats.line.delta.counters);
  EXPECT_EQ(back.line.delta.counters.at("pipeline.samples_total"), 512u);
  EXPECT_EQ(back.line.totals.gauges.at("serve.queue_depth").value, 3);
  EXPECT_EQ(back.line.totals.gauges.at("serve.queue_depth").high_watermark,
            12);
  ASSERT_EQ(back.line.totals.histograms.size(), 2u);
  EXPECT_EQ(back.line.totals.histograms.at("stage.decode_seconds").count, 64u);
  EXPECT_EQ(back.line.totals.histograms.at("stage.decode_seconds").sum,
            1.4142135623730951);
  EXPECT_EQ(back.line.delta.histograms.at("stage.decode_seconds").count, 8u);
  EXPECT_EQ(back.line.delta.histograms.at("stage.decode_seconds").sum,
            stats.line.delta.histograms.at("stage.decode_seconds").sum);
}

TEST(WireStats, TruncationAtEveryOffsetIsFormatError) {
  const Bytes full = payload_bytes(sample_stats());
  for (std::size_t len = 0; len < full.size(); ++len) {
    EXPECT_THROW((void)StatsPayload::decode(ByteSpan(full.data(), len)),
                 FormatError)
        << "len=" << len;
  }
}

TEST(WireStats, ForeignSchemaAndOutOfRangeNumbersFailTyped) {
  const std::string line = text_of(payload_bytes(sample_stats()));
  auto decode_text = [](const std::string& text) {
    return StatsPayload::decode(as_bytes(std::string_view(text)));
  };
  EXPECT_NO_THROW((void)decode_text(line));

  auto replaced = [&](const std::string& from, const std::string& to) {
    std::string out = line;
    const std::size_t at = out.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    return out.replace(at, from.size(), to);
  };
  EXPECT_THROW((void)decode_text(replaced("fleet.v1", "fleet.v2")),
               FormatError);
  EXPECT_THROW((void)decode_text(line + " {}"), FormatError);
  // Numbers a uint64 count cannot hold fail typed rather than casting.
  for (const std::string bad : {"-1", "1e300", "18446744073709551616"}) {
    EXPECT_THROW((void)decode_text(replaced("\"total\":4096",
                                            "\"total\":" + bad)),
                 FormatError)
        << bad;
    EXPECT_THROW((void)decode_text(replaced("\"count\":64",
                                            "\"count\":" + bad)),
                 FormatError)
        << bad;
  }
}

TEST(WireStats, FuzzedBytesFailTypedNeverCrash) {
  std::uint64_t state = 0xF10F10;
  for (int iter = 0; iter < 2000; ++iter) {
    Bytes noise(splitmix64(state) % 96);
    for (auto& b : noise) {
      b = static_cast<std::uint8_t>(splitmix64(state));
    }
    EXPECT_THROW((void)StatsPayload::decode(noise), FormatError);
  }
  // Mutations of a valid line: either still a valid line or FormatError.
  const Bytes valid = payload_bytes(sample_stats());
  int decoded = 0;
  for (int iter = 0; iter < 2000; ++iter) {
    Bytes fuzzed = valid;
    const int edits = 1 + static_cast<int>(splitmix64(state) % 4);
    for (int e = 0; e < edits; ++e) {
      fuzzed[splitmix64(state) % fuzzed.size()] =
          static_cast<std::uint8_t>(splitmix64(state));
    }
    try {
      (void)StatsPayload::decode(fuzzed);
      ++decoded;
    } catch (const FormatError&) {
    }
  }
  EXPECT_LT(decoded, 2000);
}

// --- Socket layer -----------------------------------------------------------

std::string test_socket_path(const char* tag) {
  static std::atomic<int> counter{0};
  return fmt("/tmp/sciprep_wire_{}_{}_{}.sock", tag, ::getpid(),
             counter.fetch_add(1));
}

TEST(WireSocket, FrameRoundtripAcrossAConnection) {
  const std::string path = test_socket_path("rt");
  const Socket listener = listen_unix(path, 4);
  std::thread server([&] {
    Socket conn = accept_unix(listener);
    ASSERT_TRUE(conn.valid());
    Bytes buf;
    const std::optional<FrameView> request = recv_frame(conn, buf, false);
    ASSERT_TRUE(request);
    EXPECT_EQ(request->type, FrameType::kHello);
    send_frame(conn, FrameType::kWelcome, 0, RawPayload{request->payload});
  });
  Socket client = connect_unix(path);
  const RawFrame hello = make_frame(FrameType::kHello, 0, 100);
  send_frame(client, hello.type, hello.flags, RawPayload{hello.payload});
  Bytes buf;
  const std::optional<FrameView> reply = recv_frame(client, buf, false);
  ASSERT_TRUE(reply);
  EXPECT_EQ(reply->type, FrameType::kWelcome);
  EXPECT_EQ(Bytes(reply->payload.begin(), reply->payload.end()), hello.payload);
  server.join();
  ::unlink(path.c_str());
}

TEST(WireSocket, ConnectToNothingIsTransient) {
  EXPECT_THROW((void)connect_unix("/tmp/sciprep_wire_no_such.sock"),
               TransientError);
}

TEST(WireSocket, ReadDeadlineSurfacesAsTransientNotHang) {
  const std::string path = test_socket_path("dl");
  const Socket listener = listen_unix(path, 4);
  std::thread server([&] {
    Socket conn = accept_unix(listener);
    // Hold the connection open but never reply.
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
  });
  Socket client = connect_unix(path);
  set_io_deadline(client, 0.05);
  Bytes buf;
  EXPECT_THROW((void)recv_frame(client, buf, false), TransientError);
  server.join();
  ::unlink(path.c_str());
}

TEST(WireSocket, HostileBatchBodyLeavesTheCallersBatchIntact) {
  // A scripted server: handshake, one valid BATCH, then a BATCH whose
  // envelope checks out but whose body is cut short. The client decodes
  // into its own batch, so the throw leaves the caller holding batch 0.
  const std::string path = test_socket_path("hb");
  const Socket listener = listen_unix(path, 4);
  BatchPayload good;
  good.seq = 0;
  good.batch = make_batch();
  BatchPayload other;
  other.seq = 1;
  other.batch = make_other_batch();
  Bytes bad = payload_bytes(other);
  bad.pop_back();
  std::thread server([&] {
    Socket conn = accept_unix(listener);
    ASSERT_TRUE(conn.valid());
    set_io_deadline(conn, 5.0);
    Bytes buf;
    ASSERT_TRUE(recv_frame(conn, buf, false));  // HELLO
    send_frame(conn, FrameType::kWelcome, 0, WelcomePayload{});
    ASSERT_TRUE(recv_frame(conn, buf, false));  // ATTACH
    send_frame(conn, FrameType::kAttached, 0, AttachedPayload{});
    ASSERT_TRUE(recv_frame(conn, buf, false));  // NEXT ack 0
    send_frame(conn, FrameType::kBatch, 0, good);
    ASSERT_TRUE(recv_frame(conn, buf, false));  // pipelined NEXT ack 1
    send_frame(conn, FrameType::kBatch, 0, RawPayload{bad});
    (void)recv_frame(conn, buf, true);  // until the client closes
  });
  {
    WireClientConfig cfg;
    cfg.socket_path = path;
    cfg.tenant = "scripted";
    WireClient client(cfg);
    Batch batch;
    ASSERT_TRUE(client.next(batch));
    expect_same_batch(batch, good.batch);
    EXPECT_THROW((void)client.next(batch), FormatError);
    expect_same_batch(batch, good.batch);
  }
  server.join();
  ::unlink(path.c_str());
}

TEST(WireSocket, OversizeSocketPathIsConfigError) {
  // sockaddr_un caps the path; both ends must refuse before touching the
  // syscall rather than silently truncating to a different address.
  const std::string path = "/tmp/" + std::string(150, 'y');
  EXPECT_THROW((void)listen_unix(path, 4), ConfigError);
  EXPECT_THROW((void)connect_unix(path), ConfigError);
}

// --- End-to-end: WireServer + WireClient over a DataService -----------------

constexpr std::size_t kSamples = 16;
constexpr int kBatchSize = 4;

struct WireRig {
  explicit WireRig(std::uint64_t injector_seed = 1)
      : injector(injector_seed, &registry) {
    data::CamGenConfig cfg;
    cfg.height = 8;
    cfg.width = 8;
    cfg.channels = 4;
    cfg.seed = 11;
    gen.emplace(cfg);
    dataset.emplace(InMemoryDataset::make_cam(*gen, kSamples,
                                              StorageFormat::kEncoded,
                                              &codec));
  }

  [[nodiscard]] serve::ServiceConfig service_config() {
    serve::ServiceConfig cfg;
    cfg.worker_threads = 2;
    cfg.metrics = &registry;
    cfg.verify_stream = true;
    cfg.lease_deadline_seconds = 0.25;
    return cfg;
  }

  [[nodiscard]] static serve::TenantSpec tenant(const std::string& name,
                                                std::uint64_t seed,
                                                std::uint64_t epochs = 1) {
    serve::TenantSpec spec;
    spec.name = name;
    spec.epochs = epochs;
    spec.pipeline.batch_size = kBatchSize;
    spec.pipeline.seed = seed;
    spec.pipeline.prefetch = true;
    spec.pipeline.ops.push_back(std::make_shared<pipeline::RandomFlipX>());
    return spec;
  }

  [[nodiscard]] WireClientConfig client_config(const std::string& path,
                                               const std::string& name) {
    WireClientConfig cfg;
    cfg.socket_path = path;
    cfg.tenant = name;
    cfg.request_timeout_seconds = 5.0;
    cfg.backoff_initial_seconds = 0.01;
    cfg.backoff_max_seconds = 0.1;
    return cfg;
  }

  std::optional<data::CamGenerator> gen;
  codec::CamCodec codec;
  obs::MetricsRegistry registry;
  fault::Injector injector;
  std::optional<InMemoryDataset> dataset;
};

/// The reference stream digest for a tenant spec: what an in-process
/// consumer of an identical service delivers.
std::uint32_t reference_stream(WireRig& rig, const serve::TenantSpec& spec) {
  serve::DataService service(*rig.dataset, rig.codec, rig.service_config());
  const auto open = service.open_session(spec);
  EXPECT_NE(open.admission, serve::Admission::kRejected);
  Batch batch;
  while (service.next_batch(open.session, batch)) {
  }
  service.close_session(open.session);
  return service.digest(open.session).stream_digest();
}

TEST(WireEndToEnd, TwoClientsDrainTheirTenantsBitIdentically) {
  WireRig rig;
  const std::uint32_t ref_a = reference_stream(rig, WireRig::tenant("a", 5));
  const std::uint32_t ref_b = reference_stream(rig, WireRig::tenant("b", 9));

  serve::DataService service(*rig.dataset, rig.codec, rig.service_config());
  const std::string path = test_socket_path("e2e");
  WireServerConfig wcfg;
  wcfg.socket_path = path;
  wcfg.request_timeout_seconds = 1.0;
  wcfg.metrics = &rig.registry;
  WireServer server(service,
                    {WireRig::tenant("a", 5), WireRig::tenant("b", 9)}, wcfg);
  server.start();

  auto drain_tenant = [&](const std::string& name, std::uint64_t& batches,
                          std::uint32_t& stream) {
    WireClient client(rig.client_config(path, name));
    client.attach();
    EXPECT_FALSE(client.resumed());
    Batch batch;
    while (client.next(batch)) {
      ++batches;
      EXPECT_EQ(batch.samples.size(), batch.order_positions.size());
    }
    const DetachedPayload detached = client.detach();
    EXPECT_EQ(detached.attaches, 1u);
    stream = client.digest().stream_digest();
    EXPECT_EQ(detached.digest_crc, stream);
  };
  std::uint64_t batches_a = 0;
  std::uint64_t batches_b = 0;
  std::uint32_t stream_a = 0;
  std::uint32_t stream_b = 0;
  std::thread ta([&] { drain_tenant("a", batches_a, stream_a); });
  std::thread tb([&] { drain_tenant("b", batches_b, stream_b); });
  ta.join();
  tb.join();
  EXPECT_TRUE(server.wait_all_detached(5.0));
  server.stop();

  EXPECT_EQ(batches_a, kSamples / kBatchSize);
  EXPECT_EQ(batches_b, kSamples / kBatchSize);
  // The wire moved the bytes; it must not have changed them.
  EXPECT_EQ(stream_a, ref_a);
  EXPECT_EQ(stream_b, ref_b);
  EXPECT_NE(stream_a, stream_b);  // distinct seeds, distinct streams
  EXPECT_GE(rig.registry.counter_value("wire.batches_sent_total"),
            batches_a + batches_b);
}

TEST(WireEndToEnd, TracedClientDecomposesEveryBatchAndPullsServerState) {
  WireRig rig;
  serve::DataService service(*rig.dataset, rig.codec, rig.service_config());
  const std::string path = test_socket_path("flow");
  WireServerConfig wcfg;
  wcfg.socket_path = path;
  wcfg.request_timeout_seconds = 5.0;
  wcfg.metrics = &rig.registry;
  WireServer server(service, {WireRig::tenant("f", 5)}, wcfg);
  server.start();

  // Private tracer + registry so the validation below sees exactly this
  // client's flow instrumentation.
  obs::MetricsRegistry client_reg;
  obs::Tracer client_tracer;
  WireClientConfig ccfg = rig.client_config(path, "f");
  ccfg.trace_propagate = true;
  ccfg.metrics = &client_reg;
  ccfg.tracer = &client_tracer;
  WireClient client(ccfg);
  client.attach();
  EXPECT_NE(client.trace_id(), 0u);
  // The CLOCK_SYNC handshake ran at attach and produced a bounded estimate.
  EXPECT_TRUE(client.clock_offset().valid);
  EXPECT_GT(client.clock_offset().rtt_ns, 0u);
  EXPECT_EQ(client.clock_offset().error_bound_ns,
            client.clock_offset().rtt_ns / 2);

  std::uint64_t batches = 0;
  Batch batch;
  while (client.next(batch)) ++batches;
  EXPECT_EQ(batches, kSamples / kBatchSize);

  // Control-frame pulls happen on the live session, before DETACH.
  const obs::FleetLine stats = client.pull_server_stats();
  EXPECT_EQ(stats.scope, "tenant/f");
  EXPECT_EQ(client.server_scope(), "tenant/f");
  const TracePayload server_trace = client.pull_server_trace();
  EXPECT_EQ(server_trace.pid, static_cast<std::int64_t>(::getpid()));
  EXPECT_FALSE(server_trace.process_name.empty());
  const obs::MetricsSnapshot server_totals = client.server_totals();
  (void)client.detach();
  EXPECT_TRUE(server.wait_all_detached(5.0));
  server.stop();

  // The STATS line's totals reproduce the server-side tenant registry:
  // every delivered sample is accounted for in the federated view.
  const auto samples = server_totals.counters.find("pipeline.samples_total");
  ASSERT_NE(samples, server_totals.counters.end());
  EXPECT_EQ(samples->second, kSamples);

  // Walk the cross-process linkage: every batch span must match a server
  // span tree with the full queue-wait/encode/send decomposition, and span
  // time must agree with the attribution histograms on both sides.
  const flow::FlowValidation v = flow::validate_flow(
      client_tracer.snapshot(), server_trace.spans, client_reg.snapshot(),
      server_totals, client_tracer.dropped_total(),
      server_trace.spans_dropped);
  EXPECT_EQ(v.client_batches, batches);
  EXPECT_EQ(v.linked, batches);
  EXPECT_EQ(v.decomposed, batches);
  EXPECT_DOUBLE_EQ(v.decomposed_fraction, 1.0);
  EXPECT_TRUE(v.histograms_consistent);
}

TEST(WireEndToEnd, InjectedCorruptionAndDropsAreAbsorbedBitIdentically) {
  WireRig rig(4242);
  const std::uint32_t ref =
      reference_stream(rig, WireRig::tenant("chaos", 3, 2));

  serve::DataService service(*rig.dataset, rig.codec, rig.service_config());
  rig.injector.configure(fault::Site::kWireFrameCrc,
                         {.corrupt_probability = 0.2});
  rig.injector.configure(fault::Site::kWireConnDrop,
                         {.transient_probability = 0.15});
  const std::string path = test_socket_path("chaos");
  WireServerConfig wcfg;
  wcfg.socket_path = path;
  wcfg.request_timeout_seconds = 1.0;
  wcfg.metrics = &rig.registry;
  wcfg.injector = &rig.injector;
  std::atomic<int> wire_faults{0};
  wcfg.on_event = [&](const fault::RecoveryEvent& event) {
    if (event.kind == fault::EventKind::kWireFault) ++wire_faults;
  };
  WireServer server(service, {WireRig::tenant("chaos", 3, 2)}, wcfg);
  server.start();

  WireClient client(rig.client_config(path, "chaos"));
  Batch batch;
  std::uint64_t batches = 0;
  while (client.next(batch)) ++batches;
  const DetachedPayload detached = client.detach();
  EXPECT_TRUE(server.wait_all_detached(5.0));
  server.stop();

  // Exactly-once: every batch delivered once despite drops + corruption...
  EXPECT_EQ(batches, 2 * kSamples / kBatchSize);
  // ...with the exact bytes an undisturbed in-process run delivers.
  EXPECT_EQ(client.digest().stream_digest(), ref);
  EXPECT_EQ(detached.digest_crc, ref);
  // The chaos actually happened and was seen.
  EXPECT_GT(client.stats().reconnects, 0u);
  EXPECT_GT(wire_faults.load(), 0);
  EXPECT_GT(rig.registry.counter_value("wire.resends_total"), 0u);
}

TEST(WireEndToEnd, HostilePeerIsContainedAndCoTenantUnharmed) {
  WireRig rig;
  const std::uint32_t ref = reference_stream(rig, WireRig::tenant("good", 5));

  serve::DataService service(*rig.dataset, rig.codec, rig.service_config());
  const std::string path = test_socket_path("hostile");
  WireServerConfig wcfg;
  wcfg.socket_path = path;
  wcfg.request_timeout_seconds = 0.5;
  wcfg.metrics = &rig.registry;
  WireServer server(service, {WireRig::tenant("good", 5)}, wcfg);
  server.start();

  // Hostile peer 1: raw garbage instead of a frame.
  {
    Socket hostile = connect_unix(path);
    const char garbage[] = "GET / HTTP/1.1\r\n\r\n";
    EXPECT_NO_THROW(
        sysio::write_full(hostile.fd(), garbage, sizeof(garbage) - 1));
  }
  // Hostile peer 2: valid envelope, server-only frame type.
  {
    Socket hostile = connect_unix(path);
    send_frame(hostile, FrameType::kBatch, 0, EmptyPayload{});
    Bytes buf;
    const std::optional<FrameView> reply = recv_frame(hostile, buf, false);
    ASSERT_TRUE(reply);
    ASSERT_EQ(reply->type, FrameType::kError);
    EXPECT_THROW(throw_error_payload(ErrorPayload::decode(reply->payload)),
                 Error);
  }
  // Hostile peer 3: attach to a tenant that does not exist.
  {
    WireClient client(rig.client_config(path, "nope"));
    EXPECT_THROW(client.attach(), ConfigError);
  }

  // The legitimate tenant is untouched by all of the above.
  WireClient client(rig.client_config(path, "good"));
  Batch batch;
  while (client.next(batch)) {
  }
  (void)client.detach();
  server.stop();
  EXPECT_EQ(client.digest().stream_digest(), ref);
}

TEST(WireEndToEnd, SecondAttachToAnOwnedTenantIsRefused) {
  WireRig rig;
  serve::DataService service(*rig.dataset, rig.codec, rig.service_config());
  const std::string path = test_socket_path("busy");
  WireServerConfig wcfg;
  wcfg.socket_path = path;
  wcfg.metrics = &rig.registry;
  WireServer server(service, {WireRig::tenant("solo", 5)}, wcfg);
  server.start();

  WireClient first(rig.client_config(path, "solo"));
  first.attach();
  WireClientConfig second_cfg = rig.client_config(path, "solo");
  second_cfg.max_reconnect_attempts = 1;
  WireClient second(second_cfg);
  EXPECT_THROW(second.attach(), ConfigError);

  Batch batch;
  while (first.next(batch)) {
  }
  (void)first.detach();
  server.stop();
}

TEST(WireEndToEnd, DeadConsumerIsSweptAndAReplacementResumesBitIdentically) {
  WireRig rig;
  const std::uint32_t ref =
      reference_stream(rig, WireRig::tenant("phoenix", 21, 2));

  serve::DataService service(*rig.dataset, rig.codec, rig.service_config());
  const std::string path = test_socket_path("phoenix");
  WireServerConfig wcfg;
  wcfg.socket_path = path;
  wcfg.request_timeout_seconds = 0.5;
  wcfg.metrics = &rig.registry;
  WireServer server(service, {WireRig::tenant("phoenix", 21, 2)}, wcfg);
  server.start();

  // "Process" one: delivers three batches, then vanishes without DETACH —
  // scoped destruction closes the socket exactly like a SIGKILL would.
  std::uint64_t first_delivered = 0;
  {
    WireClient doomed(rig.client_config(path, "phoenix"));
    Batch batch;
    while (first_delivered < 3 && doomed.next(batch)) ++first_delivered;
  }
  ASSERT_EQ(first_delivered, 3u);

  // Let the lease lapse and the sweeper suspend + checkpoint the session.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(5);
  while (server.tenant_stats("phoenix").sweeps == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ASSERT_GE(server.tenant_stats("phoenix").sweeps, 1u);

  // "Process" two: fresh client state, same tenant name.
  WireClient replacement(rig.client_config(path, "phoenix"));
  replacement.attach();
  EXPECT_TRUE(replacement.resumed());
  Batch batch;
  std::uint64_t second_delivered = 0;
  while (replacement.next(batch)) ++second_delivered;
  const DetachedPayload detached = replacement.detach();
  EXPECT_TRUE(server.wait_all_detached(5.0));
  server.stop();

  // The server-side digest spans the death: bit-identical to an
  // uninterrupted run, with the epochs' worth of batches delivered across
  // the two processes (the retained batch may go out twice — at-least-once
  // across a process death, idempotent under the digest).
  EXPECT_EQ(detached.digest_crc, ref);
  EXPECT_GE(first_delivered + second_delivered, 2 * kSamples / kBatchSize);
  EXPECT_GE(detached.sweeps, 1u);
  EXPECT_GE(detached.attaches, 2u);
  EXPECT_EQ(rig.registry.counter_value("serve.sessions_reattached_total"),
            1u);
}

TEST(WireEndToEnd, OverloadSurfacesAsDegradedFlagNeverAHang) {
  WireRig rig;
  serve::ServiceConfig scfg = rig.service_config();
  // Budget for two full-service sessions (prefetch doubles the charge):
  // the first tenant admits at 0.5, the second crosses the 0.75 degrade
  // watermark and is shed into degraded mode at admission.
  serve::DataService probe(*rig.dataset, rig.codec, scfg);
  scfg.limits.max_inflight_bytes = static_cast<std::uint64_t>(kBatchSize) *
                                   probe.probe_sample_bytes() * 4;
  serve::DataService service(*rig.dataset, rig.codec, scfg);
  const std::string path = test_socket_path("shed");
  WireServerConfig wcfg;
  wcfg.socket_path = path;
  wcfg.metrics = &rig.registry;
  WireServer server(service,
                    {WireRig::tenant("t0", 1), WireRig::tenant("t1", 2)},
                    wcfg);
  server.start();

  WireClient c0(rig.client_config(path, "t0"));
  c0.attach();
  EXPECT_FALSE(c0.degraded());
  WireClient c1(rig.client_config(path, "t1"));
  c1.attach();
  EXPECT_TRUE(c1.degraded());

  Batch batch;
  while (c0.next(batch)) {
  }
  while (c1.next(batch)) {
  }
  (void)c0.detach();
  (void)c1.detach();
  server.stop();
}

TEST(WireEndToEnd, ServerReportedCorruptionKeepsItsTypeAndNeverReconnects) {
  // Decodes of this tenant fail corrupt; under the default kFail policy the
  // service evicts it, and the server reports that as a kCorrupt ERROR over
  // a perfectly healthy connection. At probability 1 the eviction happens on
  // the synchronous first produce; with injector seed 9 at 0.08 it happens
  // while producing a read-ahead batch, after some batches were delivered.
  struct Case {
    std::uint64_t injector_seed;
    double corrupt_probability;
    bool after_delivery;
  };
  for (const Case c : {Case{1, 1.0, false}, Case{9, 0.08, true}}) {
    WireRig rig(c.injector_seed);
    rig.injector.configure(fault::Site::kCodecDecode,
                           {.corrupt_probability = c.corrupt_probability});
    serve::DataService service(*rig.dataset, rig.codec, rig.service_config());
    const std::string path = test_socket_path("evict");
    WireServerConfig wcfg;
    wcfg.socket_path = path;
    wcfg.metrics = &rig.registry;
    serve::TenantSpec doomed = WireRig::tenant("doomed", 5, 4);
    doomed.pipeline.injector = &rig.injector;
    WireServer server(service, {doomed}, wcfg);
    server.start();

    WireClient client(rig.client_config(path, "doomed"));
    Batch batch;
    std::uint64_t delivered = 0;
    EXPECT_THROW(
        {
          while (client.next(batch)) ++delivered;
        },
        FormatError)
        << "injector seed " << c.injector_seed;
    EXPECT_EQ(delivered > 0, c.after_delivery) << delivered;
    // Not wire damage: no reconnect, no corrupt frame.
    EXPECT_EQ(client.stats().reconnects, 0u);
    EXPECT_EQ(client.stats().corrupt_frames, 0u);
    EXPECT_EQ(client.stats().attaches, 1u);
    server.stop();
  }
}

TEST(WireEndToEnd, StatsPullsWhileANextIsInFlightLeaveTheStreamBitIdentical) {
  WireRig rig;
  const std::uint32_t ref = reference_stream(rig, WireRig::tenant("mid", 7, 2));

  serve::DataService service(*rig.dataset, rig.codec, rig.service_config());
  const std::string path = test_socket_path("mid");
  WireServerConfig wcfg;
  wcfg.socket_path = path;
  wcfg.metrics = &rig.registry;
  WireServer server(service, {WireRig::tenant("mid", 7, 2)}, wcfg);
  server.start();

  WireClient client(rig.client_config(path, "mid"));
  Batch batch;
  std::uint64_t batches = 0;
  while (client.next(batch)) {
    ++batches;
    // next() has already sent the following NEXT; the pull drops that
    // reply, and the server's retained frame answers the next NEXT.
    EXPECT_EQ(client.pull_server_stats().scope, "tenant/mid");
  }
  const DetachedPayload detached = client.detach();
  EXPECT_TRUE(server.wait_all_detached(5.0));
  server.stop();

  EXPECT_EQ(batches, 2 * kSamples / kBatchSize);
  EXPECT_EQ(client.digest().stream_digest(), ref);
  EXPECT_EQ(detached.digest_crc, ref);
  EXPECT_EQ(client.stats_pulls(), batches);
  EXPECT_EQ(client.stats().reconnects, 0u);
  EXPECT_GT(rig.registry.counter_value("wire.resends_total"), 0u);
}

}  // namespace
}  // namespace sciprep::wire
