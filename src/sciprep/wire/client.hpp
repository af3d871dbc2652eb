// WireClient — consumer side of the sciprep::wire transport.
//
// A WireClient speaks the framed protocol to a WireServer over an AF_UNIX
// socket and presents the same next-batch surface a local consumer gets
// from DataService, with the process boundary absorbed:
//
//   * Deadlines everywhere. Every request carries the configured socket
//     deadline; a stalled or dead server surfaces as a TransientError after
//     request_timeout_seconds, never as an indefinite hang.
//
//   * Crash-safe reconnect. Any transport-level failure — connect refused,
//     read timeout, torn frame, CRC mismatch — closes the connection and
//     retries with capped exponential backoff, re-running the
//     HELLO/WELCOME/ATTACH handshake. The NEXT ack protocol makes retried
//     requests idempotent: the server redelivers its retained frame
//     byte-for-byte, so the delivered stream is exactly-once per process
//     and bit-identical across any number of disconnects.
//
//   * Resume after process death. A replacement process attaches under the
//     same tenant name; the server reports resumed=1 and the seq to ack
//     from, and the client continues the stream from there. The delivered
//     samples are recorded into a GlobalStreamDigest so the continuation
//     can be byte-compared against a fault-free run.
//
//   * Pipelined requests. As soon as a batch is handed to the caller the
//     next NEXT goes out, so the server produces and ships batch n+1 while
//     the caller consumes batch n. The ack window already makes an
//     unconsumed in-flight reply redeliverable, so reconnects and takeovers
//     behave exactly as in stop-and-wait mode.
//
// Server-reported errors are not transport failures and never reconnect:
// a transient rejection (admission shed) is retried under the same backoff
// on the live connection, while config/corrupt/fatal errors rethrow as
// ConfigError/FormatError/Error. A server speaking a different protocol
// version raises ProtocolError.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "sciprep/flow/clock.hpp"
#include "sciprep/obs/metrics.hpp"
#include "sciprep/obs/trace.hpp"
#include "sciprep/pipeline/pipeline.hpp"
#include "sciprep/shard/digest.hpp"
#include "sciprep/wire/frame.hpp"
#include "sciprep/wire/socket.hpp"

namespace sciprep::wire {

struct WireClientConfig {
  /// AF_UNIX socket path the server listens on.
  std::string socket_path;
  /// Tenant name to attach as; must be registered on the server.
  std::string tenant;
  /// Socket send/receive deadline per request.
  double request_timeout_seconds = 10.0;
  /// Reconnect/backoff budget: each transport failure sleeps
  /// min(backoff_initial * 2^attempt, backoff_max) and retries, up to
  /// max_reconnect_attempts consecutive failures before the last error is
  /// rethrown to the caller.
  int max_reconnect_attempts = 8;
  double backoff_initial_seconds = 0.05;
  double backoff_max_seconds = 2.0;
  /// Record every delivered sample into digest(). The CRC pass over each
  /// tensor is a real fraction of small-sample delivery cost; turn it off
  /// when the run does not need the bit-identity proof (mirrors
  /// ServiceConfig::verify_stream defaulting off server-side).
  bool record_digest = true;
  /// sciprep::flow — propagate a (trace_id, span_id) context on every NEXT
  /// (kFlagTraceContext extension), run the CLOCK_SYNC handshake at attach,
  /// and record the per-batch client-side attribution spans + histograms
  /// (flow.batch / flow.client.*). Off by default: the healthy path pays
  /// nothing.
  bool trace_propagate = false;
  /// Registry the flow.client.* histograms record into when trace_propagate
  /// is on; nullptr = the process-global registry.
  obs::MetricsRegistry* metrics = nullptr;
  /// Tracer for flow spans and the clock-sync timestamps; nullptr = the
  /// process-global tracer.
  obs::Tracer* tracer = nullptr;
};

/// Client-side transport accounting.
struct WireClientStats {
  std::uint64_t delivered = 0;    // batches received (== next ack)
  std::uint64_t attaches = 0;     // successful ATTACH handshakes
  std::uint64_t reconnects = 0;   // transport failures that forced one
  std::uint64_t retries = 0;      // server-side transient rejections retried
  std::uint64_t corrupt_frames = 0;  // torn/bit-flipped frames detected
};

class WireClient {
 public:
  explicit WireClient(WireClientConfig config);
  ~WireClient();

  WireClient(const WireClient&) = delete;
  WireClient& operator=(const WireClient&) = delete;

  /// Connect and run the HELLO/WELCOME/ATTACH handshake. Implicit in the
  /// first next()/beat() call; explicit attach lets a trainer observe
  /// resumed()/degraded() before consuming.
  void attach();

  /// Receive the next batch; false once the stream ended. Retries and
  /// reconnects internally per the config; throws only when the backoff
  /// budget is exhausted or the server reports a non-transient error.
  /// The frame is decoded into a batch this client owns, which is then
  /// swapped with `batch`: a throw leaves `batch` as it was, and `batch`'s
  /// previous tensors are reused by the following call's decode.
  bool next(pipeline::Batch& batch);

  /// Beat the tenant's lease without consuming — for gaps where the
  /// consumer computes for longer than the lease deadline.
  void beat();

  /// Cleanly close the tenant's session; returns the server-side stats.
  DetachedPayload detach();

  /// Pull the server's per-tenant fleet.v1 line: the tenant registry's
  /// totals plus the delta since the previous pull on this session
  /// (everything on the first). Its totals become server_totals().
  obs::FleetLine pull_server_stats();

  /// Pull the server's span ring tail (0 = whole ring) plus its pid and
  /// process name, for a merged cross-process trace.
  TracePayload pull_server_trace(std::uint32_t max_spans = 0);

  [[nodiscard]] const WireClientStats& stats() const noexcept {
    return stats_;
  }
  /// Whether the server flagged the last ATTACHED/BATCH as DEGRADED.
  [[nodiscard]] bool degraded() const noexcept { return degraded_; }
  /// Whether the first ATTACH resumed an existing session (this process is
  /// a replacement consumer).
  [[nodiscard]] bool resumed() const noexcept { return resumed_; }
  /// The server's DataService session id, -1 before the first attach.
  [[nodiscard]] int server_session() const noexcept { return session_; }
  /// The server's config fingerprint, learned from the first WELCOME.
  [[nodiscard]] std::uint64_t fingerprint() const noexcept {
    return fingerprint_;
  }
  /// Position-keyed digest over every sample this client delivered.
  [[nodiscard]] const shard::GlobalStreamDigest& digest() const noexcept {
    return digest_;
  }
  /// This run's trace id (nonzero once attached with trace_propagate).
  [[nodiscard]] std::uint64_t trace_id() const noexcept { return trace_id_; }
  /// Clock offset mapping server tracer timestamps onto ours; valid after
  /// the first attach with trace_propagate.
  [[nodiscard]] const flow::ClockOffset& clock_offset() const noexcept {
    return clock_offset_;
  }
  /// The server tenant registry's totals as of the last pull_server_stats().
  [[nodiscard]] const obs::MetricsSnapshot& server_totals() const noexcept {
    return server_stats_.totals;
  }
  /// The scope label ("tenant/<name>") the server reports in STATS replies,
  /// empty before the first pull.
  [[nodiscard]] const std::string& server_scope() const noexcept {
    return server_stats_.scope;
  }
  [[nodiscard]] std::uint64_t stats_pulls() const noexcept {
    return stats_pulls_;
  }

 private:
  /// Connect + handshake if not currently connected. Returns the server's
  /// ERROR reply when it refuses HELLO or ATTACH (the caller decides what a
  /// refusal means), nullopt once attached; transport failures throw.
  std::optional<FrameView> ensure_attached();
  /// The handshake's request/reply step: send, receive, and require `want`
  /// or an ERROR reply.
  template <typename Payload>
  FrameView handshake(FrameType type, const Payload& request, FrameType want);
  void backoff(int attempt);
  /// NEXT for `ack`, carrying the trace-context extension (span id ack+1)
  /// when trace propagation is on.
  [[nodiscard]] NextPayload make_next(std::uint64_t ack) const;
  /// Send `request`, receive one reply. A transport failure — a socket
  /// error or timeout, a torn frame, an envelope failing its checks —
  /// reconnects with backoff; a server-reported transient error backs off
  /// and re-asks; any other server-reported error is thrown typed. The
  /// returned view is never kError; its payload points into reply_buf_ and
  /// is valid until the next roundtrip.
  template <typename Payload>
  FrameView roundtrip(FrameType type, std::uint8_t flags,
                      const Payload& request);

  WireClientConfig config_;
  Socket conn_;
  /// Reusable send buffer: every request frame is built in it, so the
  /// pipelined NEXT per batch does not allocate.
  Bytes send_buf_;
  /// Reusable receive buffer: a BATCH frame is decoded in place from here
  /// (no payload copy), and steady-state delivery does not allocate.
  Bytes reply_buf_;
  /// What the next BATCH frame decodes into in place. After a delivery it
  /// holds the caller's previous batch, so same-shape batches passed back
  /// through next() neither allocate nor zero-fill their tensors.
  pipeline::Batch received_;
  bool attached_ = false;
  /// A pipelined NEXT has been sent whose reply has not been received yet;
  /// the next frame on the wire answers it. Reset on every reconnect (a
  /// fresh connection has no outstanding request).
  bool next_in_flight_ = false;
  bool first_attach_done_ = false;
  bool ended_ = false;
  bool degraded_ = false;
  bool resumed_ = false;
  int session_ = -1;
  std::uint64_t fingerprint_ = 0;  // 0 until the first WELCOME
  WireClientStats stats_;
  shard::GlobalStreamDigest digest_;

  // sciprep::flow state (populated only when config_.trace_propagate).
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  obs::Histogram* h_encode_ = nullptr;  // flow.client.encode_seconds
  obs::Histogram* h_wait_ = nullptr;    // flow.client.wait_seconds
  obs::Histogram* h_decode_ = nullptr;  // flow.client.decode_seconds
  std::uint64_t trace_id_ = 0;
  flow::ClockSyncEstimator clock_estimator_;
  flow::ClockOffset clock_offset_;
  obs::FleetLine server_stats_;  // the last STATS reply
  std::uint64_t stats_pulls_ = 0;
};

}  // namespace sciprep::wire
