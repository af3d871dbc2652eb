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

void WireClient::ensure_attached() {
  if (attached_ && conn_.valid()) return;
  next_in_flight_ = false;  // a fresh connection has no outstanding request
  conn_ = connect_unix(config_.socket_path);
  set_io_deadline(conn_, config_.request_timeout_seconds);
  set_socket_buffers(conn_, 4 << 20);

  HelloPayload hello;
  hello.fingerprint = fingerprint_;  // 0 on first contact: accept any server
  hello.client = fmt("sciprep-wire/{}", kProtocolVersion);
  send_frame(conn_, Frame{FrameType::kHello, 0, hello.encode()});
  Frame reply;
  (void)recv_frame(conn_, reply, /*eof_ok=*/false);
  if (reply.type == FrameType::kError) {
    throw_error_payload(ErrorPayload::decode(reply.payload));
  }
  if (reply.type != FrameType::kWelcome) {
    throw ProtocolError(fmt("wire: expected WELCOME, got {}",
                            frame_type_name(reply.type)));
  }
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
  send_frame(conn_, Frame{FrameType::kAttach, 0, attach.encode()});
  (void)recv_frame(conn_, reply, /*eof_ok=*/false);
  if (reply.type == FrameType::kError) {
    throw_error_payload(ErrorPayload::decode(reply.payload));
  }
  if (reply.type != FrameType::kAttached) {
    throw ProtocolError(fmt("wire: expected ATTACHED, got {}",
                            frame_type_name(reply.type)));
  }
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
      send_frame(conn_, Frame{FrameType::kClockSync, 0, ping.encode()});
      Frame pong_frame;
      (void)recv_frame(conn_, pong_frame, /*eof_ok=*/false);
      const std::uint64_t t_recv = tracer_->now_ns();
      if (pong_frame.type == FrameType::kError) {
        throw_error_payload(ErrorPayload::decode(pong_frame.payload));
      }
      if (pong_frame.type != FrameType::kClockSync) {
        throw ProtocolError(fmt("wire: expected CLOCK_SYNC, got {}",
                                frame_type_name(pong_frame.type)));
      }
      const ClockSyncPayload pong = ClockSyncPayload::decode(pong_frame.payload);
      clock_estimator_.add_sample(
          flow::ClockSample{ping.t_client_ns, pong.t_server_ns, t_recv});
    }
    clock_offset_ = clock_estimator_.estimate();
  }
}

FrameView WireClient::roundtrip(const Frame& request) {
  for (int attempt = 0;; ++attempt) {
    try {
      ensure_attached();
      if (next_in_flight_ && request.type == FrameType::kNext) {
        // The pipelined NEXT carried this very ack (delivered is only
        // bumped after a reply is consumed); its reply answers the caller.
        (void)recv_frame_envelope(conn_, reply_buf_, /*eof_ok=*/false);
        next_in_flight_ = false;
      } else {
        if (next_in_flight_) {
          // The caller wants BEAT/DETACH while a pipelined NEXT is
          // outstanding: drain and drop its reply (still validating the
          // envelope — torn/corrupt bytes must reconnect, not desync). The
          // server retained the frame, so a later NEXT's one-behind ack
          // redelivers the batch (and a dropped END is re-sent) — nothing
          // is lost.
          (void)recv_frame_envelope(conn_, reply_buf_, /*eof_ok=*/false);
          (void)decode_frame_view(reply_buf_);
          next_in_flight_ = false;
        }
        send_frame(conn_, request);
        (void)recv_frame_envelope(conn_, reply_buf_, /*eof_ok=*/false);
      }
      // Decoded in place: the payload view points into reply_buf_ and stays
      // valid until the next receive.
      const FrameView reply = decode_frame_view(reply_buf_);
      if (reply.type == FrameType::kError) {
        const ErrorPayload error = ErrorPayload::decode(reply.payload);
        if (static_cast<ErrorClass>(error.error_class) ==
            ErrorClass::kTransient) {
          // Server-side pressure (admission shed, reattach contention):
          // the connection is healthy, just back off and re-ask.
          stats_.retries += 1;
          if (attempt + 1 >= config_.max_reconnect_attempts) {
            throw_error_payload(error);
          }
          backoff(attempt);
          continue;
        }
        throw_error_payload(error);  // typed; not a transport failure
      }
      return reply;
    } catch (const TransientError& e) {
      if (attempt + 1 >= config_.max_reconnect_attempts) throw;
      log_warn(
          fmt("wire: transport stall ({}); reconnecting", e.what()));
      conn_.close();
      attached_ = false;
      stats_.reconnects += 1;
      backoff(attempt);
    } catch (const TruncatedError& e) {
      if (attempt + 1 >= config_.max_reconnect_attempts) throw;
      log_warn(fmt("wire: torn frame ({}); reconnecting", e.what()));
      conn_.close();
      attached_ = false;
      stats_.reconnects += 1;
      stats_.corrupt_frames += 1;
      backoff(attempt);
    } catch (const FormatError& e) {
      // A frame that failed its CRC or structure checks is wire damage, not
      // data damage — the server's retained copy is intact, so reconnect
      // and let the ack protocol redeliver it. (Server-reported kCorrupt
      // errors rethrow above and are NOT retried.)
      if (attempt + 1 >= config_.max_reconnect_attempts) throw;
      log_warn(
          fmt("wire: corrupt frame ({}); reconnecting", e.what()));
      conn_.close();
      attached_ = false;
      stats_.reconnects += 1;
      stats_.corrupt_frames += 1;
      backoff(attempt);
    } catch (const IoError& e) {
      if (attempt + 1 >= config_.max_reconnect_attempts) throw;
      log_warn(
          fmt("wire: transport error ({}); reconnecting", e.what()));
      conn_.close();
      attached_ = false;
      stats_.reconnects += 1;
      backoff(attempt);
    }
  }
}

void WireClient::attach() { ensure_attached(); }

Frame WireClient::make_next(std::uint64_t ack) const {
  Frame frame;
  frame.type = FrameType::kNext;
  if (config_.trace_propagate) {
    frame.flags = kFlagTraceContext;
    ByteWriter w;
    // Span id ack+1: the id of the client batch span this request belongs
    // to (0 is reserved for "no context").
    encode_trace_context(w, TraceContext{trace_id_, ack + 1});
    w.put<std::uint64_t>(ack);
    frame.payload = std::move(w).take();
  } else {
    NextPayload next;
    next.ack = ack;
    frame.payload = next.encode();
  }
  return frame;
}

bool WireClient::next(pipeline::Batch& batch) {
  if (ended_) return false;
  const bool flow_on = config_.trace_propagate;
  const std::uint64_t span_id = stats_.delivered + 1;
  // Per-batch decomposition, all four stamps from the tracer clock so the
  // spans and the histograms describe the exact same intervals:
  //   issue -> encoded     request serialization
  //   encoded -> replied   kernel/socket + server queue/produce/encode/send
  //   replied -> decoded   response deserialization
  const std::uint64_t t_issue = flow_on ? tracer_->now_ns() : 0;
  const Frame request = make_next(stats_.delivered);
  const std::uint64_t t_encoded = flow_on ? tracer_->now_ns() : 0;
  const FrameView reply = roundtrip(request);
  const std::uint64_t t_replied = flow_on ? tracer_->now_ns() : 0;
  if (reply.type == FrameType::kEnd) {
    ended_ = true;
    return false;
  }
  if (reply.type != FrameType::kBatch) {
    throw ProtocolError(
        fmt("wire: expected BATCH or END, got {}", frame_type_name(reply.type)));
  }
  BatchPayload payload = BatchPayload::decode(reply.payload);
  const std::uint64_t t_decoded = flow_on ? tracer_->now_ns() : 0;
  if (payload.seq != stats_.delivered) {
    throw ProtocolError(fmt("wire: batch seq {} does not match ack {}",
                            payload.seq, stats_.delivered));
  }
  degraded_ = (reply.flags & kFlagDegraded) != 0;
  if (config_.record_digest) {
    for (std::size_t i = 0; i < payload.batch.samples.size(); ++i) {
      digest_.record(payload.batch.epoch, payload.batch.order_positions[i],
                     shard::sample_crc(payload.batch.samples[i]));
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
            span_id, payload.seq));
    h_encode_->record(static_cast<double>(t_encoded - t_issue) / 1e9);
    h_wait_->record(static_cast<double>(t_replied - t_encoded) / 1e9);
    h_decode_->record(static_cast<double>(t_decoded - t_replied) / 1e9);
  }
  stats_.delivered += 1;
  if (config_.pipeline_requests && attached_ && conn_.valid()) {
    // Ask for the following batch before the caller consumes this one: the
    // server overlaps produce + encode + send with the caller's work. A
    // send failure here is not an error yet — the connection is closed and
    // the next call's reconnect path re-sends the same ack.
    try {
      send_frame(conn_, make_next(stats_.delivered));
      next_in_flight_ = true;
    } catch (const IoError&) {
      conn_.close();
      attached_ = false;
    }
  }
  batch = std::move(payload.batch);
  return true;
}

void WireClient::beat() {
  const FrameView reply = roundtrip(Frame{FrameType::kBeat, 0, {}});
  if (reply.type != FrameType::kBeat) {
    throw ProtocolError(
        fmt("wire: expected BEAT, got {}", frame_type_name(reply.type)));
  }
}

StatsPayload WireClient::pull_server_stats() {
  const FrameView reply = roundtrip(Frame{FrameType::kStats, 0, {}});
  if (reply.type != FrameType::kStats) {
    throw ProtocolError(
        fmt("wire: expected STATS, got {}", frame_type_name(reply.type)));
  }
  StatsPayload payload = StatsPayload::decode(reply.payload);
  obs::snapshot_accumulate(server_totals_, payload.delta);
  server_scope_ = payload.scope;
  stats_pulls_ += 1;
  return payload;
}

TracePayload WireClient::pull_server_trace(std::uint32_t max_spans) {
  TraceRequestPayload request;
  request.max_spans = max_spans;
  const FrameView reply =
      roundtrip(Frame{FrameType::kTrace, 0, request.encode()});
  if (reply.type != FrameType::kTrace) {
    throw ProtocolError(
        fmt("wire: expected TRACE, got {}", frame_type_name(reply.type)));
  }
  return TracePayload::decode(reply.payload);
}

DetachedPayload WireClient::detach() {
  const FrameView reply = roundtrip(Frame{FrameType::kDetach, 0, {}});
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
