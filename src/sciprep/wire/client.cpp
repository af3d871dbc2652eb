#include "sciprep/wire/client.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <functional>
#include <thread>
#include <utility>

#include "sciprep/common/error.hpp"
#include "sciprep/common/log.hpp"
#include "sciprep/flow/merge.hpp"

namespace sciprep::wire {

namespace {

/// CLOCK_SYNC exchanges per attach. The estimator keeps the min-RTT sample,
/// so a few quick roundtrips on a fresh connection are enough for a bound
/// far below any span of interest.
constexpr int kClockSyncRounds = 8;

}  // namespace

WireClient::WireClient(WireClientConfig config) : config_(std::move(config)) {
  if (config_.socket_path.empty()) {
    throw ConfigError("wire: client socket_path must be non-empty");
  }
  if (config_.tenant.empty()) {
    throw ConfigError("wire: client tenant must be non-empty");
  }
  if (config_.max_reconnect_attempts < 1) {
    throw ConfigError("wire: max_reconnect_attempts must be >= 1");
  }
  ignore_sigpipe();
  if (config_.trace_propagate) {
    metrics_ = config_.metrics != nullptr ? config_.metrics
                                          : &obs::MetricsRegistry::global();
    tracer_ = config_.tracer != nullptr ? config_.tracer
                                        : &obs::Tracer::global();
    h_encode_ = &metrics_->histogram(flow::kClientEncodeSeconds);
    h_wait_ = &metrics_->histogram(flow::kClientWaitSeconds);
    h_decode_ = &metrics_->histogram(flow::kClientDecodeSeconds);
    // 48-bit trace id: unique enough per (tenant, pid, wall time) and small
    // enough to survive a double-precision JSON parse exactly.
    const auto wall = static_cast<std::uint64_t>(
        std::chrono::system_clock::now().time_since_epoch().count());
    const std::uint64_t mixed =
        std::hash<std::string>{}(config_.tenant) ^
        (static_cast<std::uint64_t>(::getpid()) << 32) ^ wall;
    trace_id_ = (mixed & ((std::uint64_t{1} << 48) - 1)) | 1;
  }
}

WireClient::~WireClient() = default;

void WireClient::backoff(int attempt) {
  const double seconds =
      std::min(config_.backoff_initial_seconds *
                   static_cast<double>(std::uint64_t{1} << std::min(attempt, 30)),
               config_.backoff_max_seconds);
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
}

template <typename Payload>
FrameView WireClient::handshake(FrameType type, const Payload& request,
                                FrameType want) {
  send_frame(conn_, type, 0, request);
  const FrameView reply = *recv_frame(conn_, reply_buf_, /*eof_ok=*/false);
  if (reply.type != want && reply.type != FrameType::kError) {
    throw ProtocolError(fmt("wire: expected {}, got {}", frame_type_name(want),
                            frame_type_name(reply.type)));
  }
  return reply;
}

std::optional<FrameView> WireClient::ensure_attached() {
  if (attached_ && conn_.valid()) return std::nullopt;
  next_in_flight_ = false;  // a fresh connection has no outstanding request
  conn_ = connect_unix(config_.socket_path);
  set_io_deadline(conn_, config_.request_timeout_seconds);
  set_socket_buffers(conn_, 4 << 20);

  HelloPayload hello;
  hello.fingerprint = fingerprint_;  // 0 on first contact: accept any server
  hello.client = fmt("sciprep-wire/{}", kProtocolVersion);
  FrameView reply = handshake(FrameType::kHello, hello, FrameType::kWelcome);
  if (reply.type == FrameType::kError) return reply;
  const WelcomePayload welcome = WelcomePayload::decode(reply.payload);
  if (welcome.schema_version != kSchemaVersion) {
    throw ProtocolError(
        fmt("wire: server batch schema version {} differs from ours ({})",
            welcome.schema_version, kSchemaVersion));
  }
  if (fingerprint_ != 0 && welcome.fingerprint != fingerprint_) {
    // A different service answered on the same path mid-stream; resuming
    // against it would silently change the data. Refuse loudly.
    throw ConfigError(
        fmt("wire: server config fingerprint changed mid-stream "
            "(0x{:x} -> 0x{:x})",
            fingerprint_, welcome.fingerprint));
  }
  fingerprint_ = welcome.fingerprint;

  AttachPayload attach;
  attach.tenant = config_.tenant;
  reply = handshake(FrameType::kAttach, attach, FrameType::kAttached);
  if (reply.type == FrameType::kError) return reply;
  const AttachedPayload attached = AttachedPayload::decode(reply.payload);
  session_ = attached.session;
  degraded_ = (reply.flags & kFlagDegraded) != 0;
  if (!first_attach_done_) {
    first_attach_done_ = true;
    if (attached.resumed != 0) {
      // This process replaces a dead consumer: adopt the server's cursor.
      // The retained batch (if any) is redelivered; the delivered stream
      // from here on is the exact suffix the dead consumer never got.
      resumed_ = true;
      stats_.delivered = attached.resume_seq;
    }
  }
  // On reconnects our own delivered count is authoritative — the server may
  // not know whether its retained frame reached us; the next ack tells it.
  attached_ = true;
  stats_.attaches += 1;

  if (config_.trace_propagate) {
    // Clock-offset handshake: a few stop-and-wait exchanges on the fresh
    // connection. Re-running it on every reconnect keeps the estimate tied
    // to the lowest RTT ever observed.
    for (int i = 0; i < kClockSyncRounds; ++i) {
      ClockSyncPayload ping;
      ping.t_client_ns = tracer_->now_ns();
      reply = handshake(FrameType::kClockSync, ping, FrameType::kClockSync);
      const std::uint64_t t_recv = tracer_->now_ns();
      if (reply.type == FrameType::kError) return reply;
      const ClockSyncPayload pong = ClockSyncPayload::decode(reply.payload);
      clock_estimator_.add_sample(
          flow::ClockSample{ping.t_client_ns, pong.t_server_ns, t_recv});
    }
    clock_offset_ = clock_estimator_.estimate();
  }
  return std::nullopt;
}

template <typename Payload>
FrameView WireClient::roundtrip(FrameType type, std::uint8_t flags,
                                const Payload& request) {
  for (int attempt = 0;; ++attempt) {
    const bool last_attempt = attempt + 1 >= config_.max_reconnect_attempts;
    std::optional<FrameView> reply;
    try {
      reply = ensure_attached();
      if (!reply) {
        if (next_in_flight_ && type == FrameType::kNext) {
          // The pipelined NEXT carried this very ack (delivered is only
          // bumped after a reply is consumed); its reply answers the caller.
        } else {
          if (next_in_flight_) {
            // The caller wants a control frame while a pipelined NEXT is
            // outstanding: receive and drop its reply (recv_frame still
            // validates the envelope — torn/corrupt bytes must reconnect,
            // not desync). The server retained the frame, so a later NEXT's
            // one-behind ack redelivers the batch (and a dropped END is
            // re-sent) — nothing is lost.
            (void)recv_frame(conn_, reply_buf_, /*eof_ok=*/false);
          }
          send_frame(conn_, type, flags, request);
        }
        next_in_flight_ = false;
        reply = recv_frame(conn_, reply_buf_, /*eof_ok=*/false);
      }
    } catch (const Error& e) {
      // The one transport-failure path: a socket error or timeout (IoError,
      // which includes a torn frame's TruncatedError) or an envelope that
      // failed its CRC/structure checks (FormatError). The server's retained
      // copy is intact, so reconnect and let the ack protocol redeliver it.
      // Anything else (ProtocolError, ConfigError) is not cured by a
      // reconnect.
      const bool corrupt = classify(e) == ErrorClass::kCorrupt;
      if ((!corrupt && dynamic_cast<const IoError*>(&e) == nullptr) ||
          last_attempt) {
        throw;
      }
      log_warn(fmt("wire: {} ({}); reconnecting",
                   corrupt ? "corrupt frame" : "transport failure", e.what()));
      conn_.close();
      attached_ = false;
      stats_.reconnects += 1;
      if (corrupt) stats_.corrupt_frames += 1;
      backoff(attempt);
      continue;
    }
    if (reply->type != FrameType::kError) return *reply;
    // A server-reported error arrived intact over a healthy connection: it
    // keeps its type and never counts as a transport failure.
    const ErrorPayload error = ErrorPayload::decode(reply->payload);
    if (static_cast<ErrorClass>(error.error_class) != ErrorClass::kTransient) {
      throw_error_payload(error);
    }
    // Server-side pressure (admission shed, reattach contention): back off
    // and re-ask.
    stats_.retries += 1;
    if (last_attempt) throw_error_payload(error);
    backoff(attempt);
  }
}

void WireClient::attach() {
  if (const std::optional<FrameView> refusal = ensure_attached()) {
    throw_error_payload(ErrorPayload::decode(refusal->payload));
  }
}

NextPayload WireClient::make_next(std::uint64_t ack) const {
  NextPayload next;
  next.ack = ack;
  // Span id ack+1: the id of the client batch span this request belongs to
  // (0 is reserved for "no context").
  if (config_.trace_propagate) next.trace = TraceContext{trace_id_, ack + 1};
  return next;
}

bool WireClient::next(pipeline::Batch& batch) {
  if (ended_) return false;
  const bool flow_on = config_.trace_propagate;
  const std::uint64_t span_id = stats_.delivered + 1;
  // Per-batch decomposition, all four stamps from the tracer clock so the
  // spans and the histograms describe the exact same intervals:
  //   issue -> encoded     request build (serialized as it is sent)
  //   encoded -> replied   kernel/socket + server queue/produce/encode/send
  //   replied -> decoded   response deserialization
  const std::uint64_t t_issue = flow_on ? tracer_->now_ns() : 0;
  const NextPayload request = make_next(stats_.delivered);
  const std::uint64_t t_encoded = flow_on ? tracer_->now_ns() : 0;
  const FrameView reply = roundtrip(FrameType::kNext, request.flags(), request);
  const std::uint64_t t_replied = flow_on ? tracer_->now_ns() : 0;
  if (reply.type == FrameType::kEnd) {
    ended_ = true;
    return false;
  }
  if (reply.type != FrameType::kBatch) {
    throw ProtocolError(
        fmt("wire: expected BATCH or END, got {}", frame_type_name(reply.type)));
  }
  // Decode into the client's own batch, never the caller's: a frame that
  // fails its checks throws with the caller's batch untouched.
  const std::uint64_t seq = BatchPayload::decode(reply.payload, received_);
  const std::uint64_t t_decoded = flow_on ? tracer_->now_ns() : 0;
  if (seq != stats_.delivered) {
    throw ProtocolError(fmt("wire: batch seq {} does not match ack {}", seq,
                            stats_.delivered));
  }
  degraded_ = (reply.flags & kFlagDegraded) != 0;
  if (config_.record_digest) {
    for (std::size_t i = 0; i < received_.samples.size(); ++i) {
      digest_.record(received_.epoch, received_.order_positions[i],
                     shard::sample_crc(received_.samples[i]));
    }
  }
  if (flow_on) {
    const std::string link = fmt("{{\"trace_id\":{},\"parent_span_id\":{}}}",
                                 trace_id_, span_id);
    tracer_->record(flow::kClientEncodeSpan, "flow", t_issue, t_encoded, link);
    tracer_->record(flow::kClientWaitSpan, "flow", t_encoded, t_replied, link);
    tracer_->record(flow::kClientDecodeSpan, "flow", t_replied, t_decoded,
                    link);
    tracer_->record(
        flow::kClientBatchSpan, "flow", t_issue, t_decoded,
        fmt("{{\"trace_id\":{},\"span_id\":{},\"seq\":{}}}", trace_id_,
            span_id, seq));
    h_encode_->record(static_cast<double>(t_encoded - t_issue) / 1e9);
    h_wait_->record(static_cast<double>(t_replied - t_encoded) / 1e9);
    h_decode_->record(static_cast<double>(t_decoded - t_replied) / 1e9);
  }
  stats_.delivered += 1;
  if (attached_ && conn_.valid()) {
    // Ask for the following batch before the caller consumes this one: the
    // server overlaps produce + encode + send with the caller's work. A
    // send failure here is not an error yet — the connection is closed and
    // the next call's reconnect path re-sends the same ack.
    try {
      const NextPayload ahead = make_next(stats_.delivered);
      send_frame(conn_, FrameType::kNext, ahead.flags(), ahead);
      next_in_flight_ = true;
    } catch (const IoError&) {
      conn_.close();
      attached_ = false;
    }
  }
  std::swap(batch, received_);  // recycles the caller's previous batch
  return true;
}

void WireClient::beat() {
  const FrameView reply = roundtrip(FrameType::kBeat, 0, EmptyPayload{});
  if (reply.type != FrameType::kBeat) {
    throw ProtocolError(
        fmt("wire: expected BEAT, got {}", frame_type_name(reply.type)));
  }
}

obs::FleetLine WireClient::pull_server_stats() {
  const FrameView reply = roundtrip(FrameType::kStats, 0, EmptyPayload{});
  if (reply.type != FrameType::kStats) {
    throw ProtocolError(
        fmt("wire: expected STATS, got {}", frame_type_name(reply.type)));
  }
  server_stats_ = StatsPayload::decode(reply.payload).line;
  stats_pulls_ += 1;
  return server_stats_;
}

TracePayload WireClient::pull_server_trace(std::uint32_t max_spans) {
  TraceRequestPayload request;
  request.max_spans = max_spans;
  const FrameView reply = roundtrip(FrameType::kTrace, 0, request);
  if (reply.type != FrameType::kTrace) {
    throw ProtocolError(
        fmt("wire: expected TRACE, got {}", frame_type_name(reply.type)));
  }
  return TracePayload::decode(reply.payload);
}

DetachedPayload WireClient::detach() {
  const FrameView reply = roundtrip(FrameType::kDetach, 0, EmptyPayload{});
  if (reply.type != FrameType::kDetached) {
    throw ProtocolError(
        fmt("wire: expected DETACHED, got {}", frame_type_name(reply.type)));
  }
  const DetachedPayload stats = DetachedPayload::decode(reply.payload);
  attached_ = false;
  conn_.close();
  return stats;
}

}  // namespace sciprep::wire
