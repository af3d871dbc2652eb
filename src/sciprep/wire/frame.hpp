// Wire frame codec for cross-process serving (sciprep::wire).
//
// Everything crossing the AF_UNIX socket between a WireServer and its
// clients is one frame in a fixed envelope:
//
//   offset  size  field
//   ------  ----  -----------------------------------------------
//        0     4  magic "SWIR" (0x52495753 little-endian)
//        4     2  protocol version (kProtocolVersion)
//        6     1  frame type (FrameType)
//        7     1  flags (kFlagDegraded, ...)
//        8     4  payload length N (<= kMaxPayload)
//       12     N  payload (per-type schema below)
//    12 + N     4  crc32c over bytes [4, 12 + N)
//
// The CRC covers every field except the magic, so a single flipped bit
// anywhere in a frame is detected: in the magic it fails the magic check,
// anywhere else it fails the CRC. Frames are built in place — begin_frame()
// stubs the header, a payload's encode_into() writes straight after it,
// finish_frame() patches the header and appends the CRC — and parsed in
// place: decode_frame_view() validates the envelope and returns a view of
// the payload inside the caller's buffer. Parsing is hostile-input-safe by
// construction — it classifies every malformed input into the sciprep
// error taxonomy and never reads out of bounds:
//
//   * input shorter than its own framing      -> TruncatedError
//   * bad magic, oversized declared length,
//     CRC mismatch, trailing garbage          -> FormatError
//   * valid envelope from a different-version
//     or unknown-type speaker                 -> ProtocolError
//
// Payload schemas are little-endian field lists over ByteWriter/ByteReader
// (STATS carries one fleet.v1 text line instead); each payload struct's
// decode() re-validates its own bounds, so a frame whose envelope checks
// out but whose body lies about its array lengths still fails typed, not
// undefined.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sciprep/common/buffer.hpp"
#include "sciprep/common/error.hpp"
#include "sciprep/obs/metrics.hpp"
#include "sciprep/obs/trace.hpp"
#include "sciprep/pipeline/pipeline.hpp"

namespace sciprep::wire {

/// The peer speaks a different protocol than this build (wrong version,
/// unknown frame type, out-of-window acknowledgement, handshake violation).
/// Classifies as kFatal: neither retrying nor skipping can reconcile two
/// incompatible speakers.
class ProtocolError : public Error {
 public:
  using Error::Error;
};

inline constexpr std::uint32_t kMagic = 0x52495753u;  // "SWIR"
/// Version 2: STATS replies carry a fleet.v1 line.
inline constexpr std::uint16_t kProtocolVersion = 2;
/// Version of the batch payload schema, carried in the HELLO/WELCOME
/// handshake separately from the envelope version: the envelope can stay
/// stable while the tensor encoding evolves.
inline constexpr std::uint32_t kSchemaVersion = 1;
inline constexpr std::size_t kHeaderSize = 12;
inline constexpr std::size_t kTrailerSize = 4;
/// Hard cap on a declared payload length. A hostile or corrupt header
/// cannot make the receiver allocate more than this.
inline constexpr std::uint32_t kMaxPayload = 256u << 20;

/// Frame flags. kFlagDegraded rides ATTACHED and BATCH frames when the
/// session is running at Admission::kDegraded — overload surfaces to the
/// client as a visible flag, never as a hang. kFlagTraceContext marks a NEXT
/// frame whose payload is prefixed with a versioned TraceContext extension
/// (sciprep::flow distributed tracing); the CRC covers the extension like
/// any other payload byte.
inline constexpr std::uint8_t kFlagDegraded = 0x01;
inline constexpr std::uint8_t kFlagTraceContext = 0x02;

enum class FrameType : std::uint8_t {
  kHello = 1,    // client -> server: schema version + expected fingerprint
  kWelcome,      // server -> client: schema version + config fingerprint
  kAttach,       // client -> server: attach to a registered tenant by name
  kAttached,     // server -> client: session id, admission, resume state
  kNext,         // client -> server: request a batch, acking delivery so far
  kBatch,        // server -> client: one sequenced batch
  kEnd,          // server -> client: stream exhausted (all epochs delivered)
  kBeat,         // either direction: lease keep-alive (server echoes it)
  kDetach,       // client -> server: clean close
  kDetached,     // server -> client: final per-tenant accounting
  kError,        // server -> client: typed failure (ErrorClass + message)
  kClockSync,    // both ways: steady-clock exchange for flow clock alignment
  kStats,        // client -> server: pull; server -> client: fleet.v1 line
  kTrace,        // client -> server: pull; server -> client: span ring tail
};

/// Highest valid FrameType value; decode rejects anything outside
/// [kHello, kMaxFrameType] as a ProtocolError.
inline constexpr std::uint8_t kMaxFrameType =
    static_cast<std::uint8_t>(FrameType::kTrace);

const char* frame_type_name(FrameType type) noexcept;

/// Start a frame: a writer with the 12-byte header stubbed in, into which a
/// payload's encode_into() serializes straight after the header;
/// finish_frame() then patches type/flags/length and appends the CRC. The
/// payload is written once, directly into the wire envelope. Passing a
/// retired frame's Bytes as `reuse` recycles its storage (the contents are
/// discarded), so steady-state re-encoding never grows a buffer from zero.
/// finish_frame() throws ConfigError if the payload exceeds kMaxPayload.
[[nodiscard]] ByteWriter begin_frame(Bytes reuse = {});
[[nodiscard]] Bytes finish_frame(ByteWriter&& w, FrameType type,
                                 std::uint8_t flags);

/// A validated envelope whose payload is still a view into the caller's
/// buffer. The view lives only as long as the bytes passed in.
struct FrameView {
  FrameType type = FrameType::kBeat;
  std::uint8_t flags = 0;
  ByteSpan payload;
};

/// Parse exactly one frame from `data` (the entire span must be the frame),
/// without copying the payload. Throws TruncatedError / FormatError /
/// ProtocolError as documented above.
[[nodiscard]] FrameView decode_frame_view(ByteSpan data);

/// Validate the 12-byte header of an incoming frame and return its declared
/// payload length, before the payload has been read — a stream reader calls
/// this to size its read without trusting the peer. Checks the magic and the
/// length cap only; everything else waits for decode_frame_view() once the
/// full envelope is in memory. Throws TruncatedError / FormatError.
[[nodiscard]] std::uint32_t decode_header(ByteSpan header);

// -- Payload schemas -------------------------------------------------------
//
// Every payload has one writer, encode_into(), which serializes into a
// begin_frame() writer, and one parser, decode().

/// BEAT, END, DETACH and the STATS request carry no payload.
struct EmptyPayload {
  void encode_into(ByteWriter& /*w*/) const noexcept {}
};

struct HelloPayload {
  std::uint32_t schema_version = kSchemaVersion;
  /// The service fingerprint the client expects, 0 on first contact. A
  /// reconnecting client sends the fingerprint it learned from WELCOME, so
  /// resuming against a differently-configured server fails the handshake
  /// instead of corrupting the stream.
  std::uint64_t fingerprint = 0;
  std::string client;  // diagnostic label for server-side incidents

  void encode_into(ByteWriter& w) const;
  [[nodiscard]] static HelloPayload decode(ByteSpan data);
};

struct WelcomePayload {
  std::uint32_t schema_version = kSchemaVersion;
  std::uint64_t fingerprint = 0;

  void encode_into(ByteWriter& w) const;
  [[nodiscard]] static WelcomePayload decode(ByteSpan data);
};

struct AttachPayload {
  std::string tenant;

  void encode_into(ByteWriter& w) const;
  [[nodiscard]] static AttachPayload decode(ByteSpan data);
};

struct AttachedPayload {
  std::int32_t session = -1;
  std::uint8_t admission = 0;  // serve::Admission as int
  /// True when this attach resumed existing server-side session state
  /// (takeover of a live session or reattach of a swept one).
  std::uint8_t resumed = 0;
  /// The server's produced-batch sequence number: what a client that lost
  /// its local state (a restarted process) must set its ack counter to.
  std::uint64_t resume_seq = 0;

  void encode_into(ByteWriter& w) const;
  [[nodiscard]] static AttachedPayload decode(ByteSpan data);
};

/// Trace context prefixed to a NEXT payload when kFlagTraceContext is set:
/// the client's trace id plus the span id of the batch span this request
/// belongs to, so the server can open linked spans. The prefix carries its
/// own version byte — the envelope version stays put while the extension
/// evolves.
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t parent_span_id = 0;
};

inline constexpr std::uint8_t kTraceContextVersion = 1;
inline constexpr std::size_t kTraceContextBytes = 1 + 8 + 8;

void encode_trace_context(ByteWriter& w, const TraceContext& ctx);

/// Strip the extension off the front of `payload` (which is advanced past
/// it) and return the context. Throws FormatError when the prefix is
/// truncated, ProtocolError when its version is unknown.
[[nodiscard]] TraceContext decode_trace_context(ByteSpan& payload);

struct NextPayload {
  /// Count of batches the client has received so far == the sequence number
  /// it expects next. The server produces fresh when ack matches its own
  /// counter and re-sends its retained frame when the client is one behind
  /// (the in-flight reply was lost); anything else is a protocol error.
  std::uint64_t ack = 0;
  /// Set on a traced request: written as the TraceContext extension ahead
  /// of the ack, and the frame carries kFlagTraceContext (flags()).
  std::optional<TraceContext> trace;

  [[nodiscard]] std::uint8_t flags() const noexcept {
    return trace ? kFlagTraceContext : std::uint8_t{0};
  }
  void encode_into(ByteWriter& w) const;
  /// `flags` are the frame's: kFlagTraceContext means the extension leads.
  [[nodiscard]] static NextPayload decode(ByteSpan data, std::uint8_t flags);
};

struct BatchPayload {
  std::uint64_t seq = 0;
  pipeline::Batch batch;

  void encode_into(ByteWriter& w) const;
  /// Decode into `out`, overwriting its tensors in place, and return the
  /// batch's seq. A tensor whose size matches the one already in `out`
  /// keeps its storage, so decoding a stream of same-shape batches into one
  /// reused Batch neither allocates nor zero-fills. On a throw `out` holds
  /// a partial decode: decode into a scratch batch the caller does not see.
  [[nodiscard]] static std::uint64_t decode(ByteSpan data,
                                            pipeline::Batch& out);
};

struct DetachedPayload {
  std::uint64_t batches = 0;   // batches produced for this tenant
  std::uint64_t samples = 0;   // samples across those batches
  std::uint64_t attaches = 0;  // ATTACHes accepted (1 + reconnects)
  std::uint64_t sweeps = 0;    // lease sweeps that suspended this tenant
  /// CRC folded over the tenant's server-side stream digest entries, 0 when
  /// verify_stream is off. A client that kept its own digest cross-checks
  /// exact-once delivery against this at detach time.
  std::uint32_t digest_crc = 0;

  void encode_into(ByteWriter& w) const;
  [[nodiscard]] static DetachedPayload decode(ByteSpan data);
};

struct ErrorPayload {
  std::uint8_t error_class = 0;  // sciprep::ErrorClass as int
  std::string message;

  void encode_into(ByteWriter& w) const;
  [[nodiscard]] static ErrorPayload decode(ByteSpan data);
};

// -- Flow extensions (sciprep::flow over the wire) -------------------------

/// CLOCK_SYNC, both directions: the client stamps t_client_ns from its
/// tracer clock; the server echoes it and fills t_server_ns with its own.
/// The client's flow::ClockSyncEstimator turns a handful of these into a
/// cross-process clock offset.
struct ClockSyncPayload {
  std::uint64_t t_client_ns = 0;
  std::uint64_t t_server_ns = 0;  // 0 in the request

  void encode_into(ByteWriter& w) const;
  [[nodiscard]] static ClockSyncPayload decode(ByteSpan data);
};

/// STATS reply: one fleet.v1 line (obs::fleet_line) for the attached
/// tenant — scope "tenant/<name>", t in seconds on the server's tracer
/// clock, the tenant registry's cumulative totals, and the delta since the
/// previous STATS on this session (everything on the first pull). The
/// request is an EmptyPayload. This is the series format the exporter, the
/// trainer's --fleet-out and fleetview already speak; each reply is a
/// one-line series (seq 0), which the puller renumbers into its own.
struct StatsPayload {
  obs::FleetLine line;

  void encode_into(ByteWriter& w) const;
  /// Throws FormatError unless `data` is exactly one valid fleet.v1 line.
  [[nodiscard]] static StatsPayload decode(ByteSpan data);
};

/// TRACE request (client -> server): pull at most max_spans of the server's
/// span ring (0 = the whole ring).
struct TraceRequestPayload {
  std::uint32_t max_spans = 0;

  void encode_into(ByteWriter& w) const;
  [[nodiscard]] static TraceRequestPayload decode(ByteSpan data);
};

/// TRACE reply: the server's identity plus its span ring tail, timestamps on
/// the server's steady clock — flow::remap_remote_ns() plus the CLOCK_SYNC
/// offset puts them on the client timeline for a merged trace.
struct TracePayload {
  std::int64_t pid = 0;
  std::string process_name;
  std::uint64_t spans_dropped = 0;  // server ring wraps (trace incomplete)
  std::vector<obs::TraceSpan> spans;

  void encode_into(ByteWriter& w) const;
  [[nodiscard]] static TracePayload decode(ByteSpan data);
};

/// Rebuild the typed exception an ErrorPayload describes and throw it: the
/// client surfaces server-side failures to its caller under the same error
/// taxonomy an in-process DataService would have used.
[[noreturn]] void throw_error_payload(const ErrorPayload& payload);

}  // namespace sciprep::wire
