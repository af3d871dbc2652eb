#include "sciprep/wire/server.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <optional>
#include <thread>
#include <utility>

#include "sciprep/common/error.hpp"
#include "sciprep/common/log.hpp"
#include "sciprep/common/sysio.hpp"
#include "sciprep/flow/merge.hpp"
#include "sciprep/obs/trace.hpp"

namespace sciprep::wire {

namespace {

/// Pending-connection queue of the listening socket.
constexpr int kListenBacklog = 16;

/// Thrown by a handler to sever the connection without replying — the
/// injected wire.conn_drop fault and unrecoverable protocol violations.
struct DropConnection {
  std::string reason;
};

obs::MetricsRegistry& resolve(obs::MetricsRegistry* metrics,
                              serve::DataService& service) {
  return metrics != nullptr ? *metrics : service.metrics();
}

}  // namespace

WireServer::WireServer(serve::DataService& service,
                       std::vector<serve::TenantSpec> tenants,
                       WireServerConfig config)
    : service_(service),
      config_(std::move(config)),
      metrics_(&resolve(config_.metrics, service)),
      connections_total_(metrics_->counter("wire.connections_total")),
      frames_received_(metrics_->counter("wire.frames_received_total")),
      frames_sent_(metrics_->counter("wire.frames_sent_total")),
      errors_sent_(metrics_->counter("wire.errors_sent_total")),
      attaches_total_(metrics_->counter("wire.attaches_total")),
      batches_sent_(metrics_->counter("wire.batches_sent_total")),
      resends_total_(metrics_->counter("wire.resends_total")),
      sweeps_counter_(metrics_->counter("wire.sweeps_total")) {
  if (config_.socket_path.empty()) {
    throw ConfigError("wire: server socket_path must be non-empty");
  }
  if (config_.request_timeout_seconds <= 0) {
    throw ConfigError("wire: request_timeout_seconds must be > 0");
  }
  if (!(service_.lease_deadline_seconds() > 0)) {
    throw ConfigError("wire: the service's lease deadline must be > 0");
  }
  for (serve::TenantSpec& spec : tenants) {
    if (spec.name.empty()) {
      throw ConfigError("wire: tenant name must be non-empty");
    }
    const std::string name = spec.name;
    if (!specs_.emplace(name, std::move(spec)).second) {
      throw ConfigError(fmt("wire: duplicate tenant '{}'", name));
    }
  }
}

WireServer::~WireServer() { stop(); }

void WireServer::start() {
  if (started_.exchange(true)) {
    throw ConfigError("wire: server already started");
  }
  ignore_sigpipe();
  listener_ = listen_unix(config_.socket_path, kListenBacklog);
  // A short accept deadline keeps the accept loop responsive to stop().
  set_io_deadline(listener_, 0.2);
  accept_thread_ = std::thread([this] { accept_loop(); });
  sweep_thread_ = std::thread([this] { sweep_loop(); });
}

void WireServer::stop() {
  if (!started_.load() || stop_.exchange(true)) return;
  roster_cv_.notify_all();
  {
    // Wake every handler blocked in recv: shutdown turns their pending read
    // into EOF without racing the fd lifetime (the handler owns the close).
    std::lock_guard lock(threads_mutex_);
    for (const auto& [id, fd] : conn_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  if (sweep_thread_.joinable()) sweep_thread_.join();
  for (;;) {
    std::thread t;
    {
      std::lock_guard lock(threads_mutex_);
      if (conn_threads_.empty()) break;
      t = std::move(conn_threads_.back());
      conn_threads_.pop_back();
    }
    if (t.joinable()) t.join();
  }
  listener_.close();
  ::unlink(config_.socket_path.c_str());
}

bool WireServer::wait_all_detached(double timeout_seconds) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_seconds);
  std::unique_lock lock(roster_mutex_);
  return roster_cv_.wait_until(lock, deadline, [this] {
    if (stop_.load()) return true;
    if (sessions_.size() < specs_.size()) return false;
    for (const auto& [name, session] : sessions_) {
      if (!session.stats.detached) return false;
    }
    return true;
  });
}

TenantWireStats WireServer::tenant_stats(const std::string& name) const {
  std::lock_guard lock(roster_mutex_);
  const auto it = sessions_.find(name);
  return it != sessions_.end() ? it->second.stats : TenantWireStats{};
}

int WireServer::tenant_session(const std::string& name) const {
  std::lock_guard lock(roster_mutex_);
  const auto it = sessions_.find(name);
  return it != sessions_.end() ? it->second.session : -1;
}

void WireServer::accept_loop() {
  while (!stop_.load()) {
    Socket conn;
    try {
      conn = accept_unix(listener_);
    } catch (const std::exception& e) {
      if (stop_.load()) break;
      log_warn(fmt("wire: accept failed: {}", e.what()));
      continue;
    }
    if (!conn.valid()) continue;  // deadline tick; poll stop_
    connections_total_.add(1);
    const long conn_id = next_conn_id_++;
    std::lock_guard lock(threads_mutex_);
    conn_fds_.emplace(conn_id, conn.fd());
    conn_threads_.emplace_back(
        [this, conn_id, c = std::make_shared<Socket>(std::move(conn))] {
          handle_connection(std::move(*c), conn_id);
        });
  }
}

void WireServer::sweep_loop() {
  // Half the lease deadline: a lost consumer is swept within 1.5 deadlines.
  const double interval = service_.lease_deadline_seconds() / 2;
  std::mutex wait_mutex;
  while (!stop_.load()) {
    {
      std::unique_lock lock(wait_mutex);
      roster_cv_.wait_for(lock, std::chrono::duration<double>(interval),
                          [this] { return stop_.load(); });
    }
    if (stop_.load()) break;
    std::vector<std::string> suspended;
    {
      // Unique lock: the service's contract forbids sweeping a session while
      // its own next_batch is in flight, and handlers hold the shared side.
      std::unique_lock sweep(sweep_mutex_);
      suspended = service_.sweep_leases();
    }
    if (suspended.empty()) continue;
    sweeps_counter_.add(suspended.size());
    sweeps_total_.fetch_add(suspended.size(), std::memory_order_relaxed);
    std::lock_guard lock(roster_mutex_);
    for (const std::string& name : suspended) {
      const auto it = sessions_.find(name);
      if (it != sessions_.end()) it->second.stats.sweeps += 1;
    }
  }
}

void WireServer::handle_connection(Socket socket, long conn_id) {
  Conn conn{std::move(socket), {}};
  set_io_deadline(conn.socket, config_.request_timeout_seconds);
  // Deep enough for one typical BATCH frame: send() then returns before the
  // client drains, so the read-ahead produce overlaps the transfer.
  set_socket_buffers(conn.socket, 4 << 20);
  std::string attached;  // tenant this connection owns, empty before ATTACH
  // One receive buffer per connection; every request is parsed in place.
  Bytes buf;
  while (!stop_.load()) {
    FrameView request;
    try {
      const std::optional<FrameView> got =
          recv_frame(conn.socket, buf, /*eof_ok=*/true);
      if (!got) break;  // clean close
      request = *got;
    } catch (const TransientError&) {
      continue;  // idle past the read deadline; poll stop_ and keep waiting
    } catch (const std::exception& e) {
      // Garbage from this peer is this peer's problem alone: record it and
      // sever. The tenant session (if any) stays for the lease sweep or a
      // reconnect to pick up.
      emit_wire_fault(attached, fmt("unreadable frame from connection {}: {}",
                                    conn_id, e.what()));
      break;
    }
    frames_received_.add(1);
    try {
      if (!dispatch(conn, conn_id, attached, request)) break;
    } catch (const DropConnection& drop) {
      emit_wire_fault(attached, fmt("connection {} dropped: {}", conn_id,
                                    drop.reason));
      break;
    } catch (const std::exception& e) {
      // A handler failure (including a send to a vanished peer) must never
      // take the server down; sever this connection only.
      emit_wire_fault(attached, fmt("connection {} failed: {}", conn_id,
                                    e.what()));
      break;
    }
  }
  if (!attached.empty()) release_owner(conn_id);
  std::lock_guard lock(threads_mutex_);
  conn_fds_.erase(conn_id);
}

bool WireServer::dispatch(Conn& conn, long conn_id, std::string& attached,
                          const FrameView& request) {
  switch (request.type) {
    case FrameType::kHello: {
      const HelloPayload hello = HelloPayload::decode(request.payload);
      if (hello.schema_version != kSchemaVersion) {
        send_error(conn, ErrorClass::kConfig,
                   fmt("batch schema version {} not supported (server "
                       "speaks {})",
                       hello.schema_version, kSchemaVersion));
        return true;
      }
      if (hello.fingerprint != 0 &&
          hello.fingerprint != service_.config_fingerprint()) {
        send_error(conn, ErrorClass::kConfig,
                   fmt("config fingerprint mismatch: client expects 0x{:x}, "
                       "server is 0x{:x} — not the service this stream "
                       "started on",
                       hello.fingerprint, service_.config_fingerprint()));
        return true;
      }
      WelcomePayload welcome;
      welcome.schema_version = kSchemaVersion;
      welcome.fingerprint = service_.config_fingerprint();
      respond(conn, FrameType::kWelcome, 0, welcome);
      return true;
    }
    case FrameType::kAttach:
      handle_attach(conn, conn_id, attached, request);
      return true;
    case FrameType::kNext:
      if (attached.empty()) {
        send_error(conn, ErrorClass::kConfig, "NEXT before ATTACH");
        return true;
      }
      handle_next(conn, conn_id, attached, request);
      return true;
    case FrameType::kBeat: {
      if (!attached.empty()) {
        const std::shared_lock sweep(sweep_mutex_);
        std::lock_guard lock(roster_mutex_);
        const auto it = sessions_.find(attached);
        if (it != sessions_.end() &&
            service_.session_state(it->second.session) ==
                serve::SessionState::kActive) {
          service_.beat(it->second.session);
        }
      }
      respond(conn, FrameType::kBeat, 0, EmptyPayload{});
      return true;
    }
    case FrameType::kDetach:
      if (attached.empty()) {
        send_error(conn, ErrorClass::kConfig, "DETACH before ATTACH");
        return true;
      }
      handle_detach(conn, attached);
      attached.clear();
      release_owner(conn_id);
      return true;
    case FrameType::kClockSync:
      handle_clock_sync(conn, request);
      return true;
    case FrameType::kStats:
      if (attached.empty()) {
        send_error(conn, ErrorClass::kConfig, "STATS before ATTACH");
        return true;
      }
      handle_stats(conn, attached);
      return true;
    case FrameType::kTrace:
      handle_trace(conn, request);
      return true;
    default:
      // A client must never send server-side frame types; this speaker is
      // broken or hostile. One typed error, then sever.
      send_error(conn, ErrorClass::kFatal,
                 fmt("unexpected {} frame from a client",
                     frame_type_name(request.type)));
      return false;
  }
}

void WireServer::handle_attach(Conn& conn, long conn_id,
                               std::string& attached,
                               const FrameView& request) {
  const AttachPayload attach = AttachPayload::decode(request.payload);
  const std::shared_lock sweep(sweep_mutex_);
  std::lock_guard lock(roster_mutex_);
  const auto spec_it = specs_.find(attach.tenant);
  if (spec_it == specs_.end()) {
    send_error(conn, ErrorClass::kConfig,
               fmt("unknown tenant '{}'", attach.tenant));
    return;
  }
  auto it = sessions_.find(attach.tenant);
  if (it != sessions_.end() && it->second.stats.detached) {
    // A cleanly-detached name may be reused: start a fresh session.
    sessions_.erase(it);
    it = sessions_.end();
  }
  bool resumed = false;
  if (it == sessions_.end()) {
    const serve::DataService::OpenResult res =
        service_.open_session(spec_it->second);
    if (res.admission == serve::Admission::kRejected) {
      send_error(conn, ErrorClass::kTransient,
                 fmt("admission rejected for tenant '{}'; retry later",
                     attach.tenant));
      return;
    }
    Session session;
    session.session = res.session;
    session.owner = conn_id;
    session.stats.attaches = 1;
    it = sessions_.emplace(attach.tenant, std::move(session)).first;
  } else {
    Session& session = it->second;
    if (!session.terminal_error.empty()) {
      send_error(conn, ErrorClass::kConfig,
                 fmt("tenant '{}' was evicted: {}", attach.tenant,
                     session.terminal_error));
      return;
    }
    if (session.owner != -1 && session.owner != conn_id) {
      send_error(conn, ErrorClass::kConfig,
                 fmt("tenant '{}' is attached on another connection",
                     attach.tenant));
      return;
    }
    const serve::SessionState state = service_.session_state(session.session);
    if (state == serve::SessionState::kSuspended) {
      const serve::DataService::OpenResult res =
          service_.reattach(attach.tenant);
      if (res.admission == serve::Admission::kRejected) {
        send_error(conn, ErrorClass::kTransient,
                   fmt("reattach rejected for tenant '{}'; retry later",
                       attach.tenant));
        return;
      }
    } else if (state != serve::SessionState::kActive) {
      send_error(conn, ErrorClass::kConfig,
                 fmt("tenant '{}' session is {}", attach.tenant,
                     serve::session_state_name(state)));
      return;
    } else {
      service_.beat(session.session);
    }
    session.owner = conn_id;
    session.stats.attaches += 1;
    resumed = true;
  }
  Session& session = it->second;
  attached = attach.tenant;
  attaches_total_.add(1);
  const serve::Admission admission =
      service_.session_admission(session.session);
  AttachedPayload reply;
  reply.session = session.session;
  reply.admission = static_cast<std::uint8_t>(admission);
  reply.resumed = resumed ? 1 : 0;
  // Where a state-less replacement consumer must start acking. The retained
  // frame (if any) may never have reached the dead consumer, so it is
  // redelivered: at-least-once per batch across a process death, with the
  // digest's idempotent record() proving the duplicate bit-identical. A
  // read-ahead frame was never sent at all, so it comes after the retained
  // one in the replay.
  reply.resume_seq = session.retained_valid
                         ? session.retained_seq
                         : (session.ready_valid ? session.ready_seq
                                                : session.next_seq);
  respond(conn, FrameType::kAttached,
          admission == serve::Admission::kDegraded ? kFlagDegraded
                                                   : std::uint8_t{0},
          reply);
}

void WireServer::handle_next(Conn& conn, long conn_id,
                             const std::string& attached,
                             const FrameView& request) {
  obs::Tracer& tracer = obs::Tracer::global();
  const NextPayload next = NextPayload::decode(request.payload, request.flags);
  const bool flow_on = next.trace.has_value();
  const std::int64_t t_request =
      flow_on ? static_cast<std::int64_t>(tracer.now_ns()) : 0;
  const std::shared_lock sweep(sweep_mutex_);
  Session* const session = live_session(conn, attached);
  if (session == nullptr) return;
  // This connection owns the tenant (single-consumer), so session state
  // beyond the roster map itself is not raced: only the sweeper touches it,
  // and the shared lock holds the sweeper out.
  if (service_.session_state(session->session) ==
      serve::SessionState::kSuspended) {
    // Swept while this consumer was merely slow, not dead: self-heal by
    // reattaching before producing.
    const serve::DataService::OpenResult res = service_.reattach(attached);
    if (res.admission == serve::Admission::kRejected) {
      send_error(conn, ErrorClass::kTransient,
                 fmt("reattach rejected for tenant '{}'; retry later",
                     attached));
      return;
    }
  }
  const bool degraded = service_.session_admission(session->session) ==
                        serve::Admission::kDegraded;
  // flow attribution (only when the request carried a trace context): the
  // spans and histograms below measure *client-visible* server time — a
  // promoted read-ahead frame charges ~0 queue-wait and 0 encode, because
  // that work was overlapped with the client's previous decode and never
  // held this request up.
  std::int64_t encode_ns = 0;
  if (session->retained_valid && next.ack == session->retained_seq) {
    // The previous reply died on the wire (or with the previous consumer
    // process): redeliver the retained frame byte-for-byte.
    {
      std::lock_guard lock(roster_mutex_);
      session->stats.resends += 1;
    }
    resends_total_.add(1);
  } else if (session->ready_valid && next.ack == session->ready_seq) {
    // Promote the read-ahead frame: from here it is committed to the wire,
    // so it becomes the resend window even if the send below is severed.
    // The swap hands the retired frame's storage to the next read-ahead.
    std::swap(session->retained, session->ready);
    session->retained_seq = session->ready_seq;
    session->retained_valid = true;
    session->ready_valid = false;
  } else if (!session->ready_valid && next.ack == session->next_seq) {
    if (session->stats.ended) {
      respond(conn, FrameType::kEnd, 0, EmptyPayload{});
      return;
    }
    try {
      std::int64_t produce_ns = 0;
      if (!encode_next_batch(*session, degraded, session->retained,
                             session->retained_seq, produce_ns, encode_ns)) {
        {
          std::lock_guard lock(roster_mutex_);
          session->stats.ended = true;
        }
        respond(conn, FrameType::kEnd, 0, EmptyPayload{});
        return;
      }
      session->retained_valid = true;
    } catch (const std::exception& e) {
      // The service evicted the session; every request from now on reports
      // the same terminal error.
      {
        std::lock_guard lock(roster_mutex_);
        session->terminal_error = e.what();
      }
      send_error(conn, classify(e), e.what());
      return;
    }
  } else {
    send_error(conn, ErrorClass::kFatal,
               fmt("ack {} out of window for tenant '{}' (expected {}{})",
                   next.ack, attached,
                   session->retained_valid
                       ? fmt("{} or ", session->retained_seq)
                       : std::string{},
                   session->ready_valid ? session->ready_seq
                                        : session->next_seq));
    return;
  }
  const std::int64_t t_ready =
      flow_on ? static_cast<std::int64_t>(tracer.now_ns()) : 0;
  const std::int64_t t_send0 = t_ready;
  if (config_.throttle_send_seconds > 0) {
    // Drill knob: a deliberately slow wire, charged to the send stage like
    // any real socket stall would be.
    std::this_thread::sleep_for(
        std::chrono::duration<double>(config_.throttle_send_seconds));
  }
  const Bytes& out = session->retained;
  if (config_.injector != nullptr) {
    // wire.conn_drop fires *after* the batch is produced and retained — the
    // hard case: server state advanced, the reply never arrives, and the
    // client's reconnect must recover it via the ack window.
    try {
      config_.injector->on_operation(fault::Site::kWireConnDrop,
                                     session->send_ops);
    } catch (const TransientError&) {
      session->send_ops += 1;
      throw DropConnection{fmt("injected conn drop to tenant '{}' (conn {})",
                               attached, conn_id)};
    }
    // wire.frame_crc flips a bit in the outgoing envelope. Each send draws a
    // fresh op id, so the redelivery of a corrupted frame is not doomed to
    // the same corruption.
    Bytes scratch;
    const ByteSpan mutated = config_.injector->mutate(
        fault::Site::kWireFrameCrc, session->send_ops++, out, scratch);
    if (mutated.data() != out.data()) {
      emit_wire_fault(attached, fmt("injected frame corruption on seq {}",
                                    session->retained_seq));
    }
    sysio::write_full(conn.socket.fd(), mutated.data(), mutated.size());
  } else {
    // The retained envelope is already a whole frame: write it as is.
    sysio::write_full(conn.socket.fd(), out.data(), out.size());
  }
  batches_sent_.add(1);
  frames_sent_.add(1);
  std::string link;
  if (flow_on) {
    const std::int64_t t_send1 = static_cast<std::int64_t>(tracer.now_ns());
    // Span args carry the linkage the validator and flowmerge walk: every
    // server-side span for this request points at the client's batch span.
    link = "{\"trace_id\":" + std::to_string(next.trace->trace_id) +
           ",\"parent_span_id\":" +
           std::to_string(next.trace->parent_span_id) + "}";
    const std::int64_t t_encode0 = t_ready - encode_ns;
    const auto u = [](std::int64_t ns) {
      return static_cast<std::uint64_t>(ns > 0 ? ns : 0);
    };
    tracer.record(flow::kServerQueueWaitSpan, "flow", u(t_request),
                  u(t_encode0), link);
    tracer.record(flow::kServerEncodeSpan, "flow", u(t_encode0), u(t_ready),
                  link);
    tracer.record(flow::kServerSendSpan, "flow", u(t_send0), u(t_send1), link);
    tracer.record(flow::kServerNextSpan, "flow", u(t_request), u(t_send1),
                  link);
    // Histograms record the exact same measured intervals as the spans, so
    // flow::validate_flow can cross-check the two books against each other.
    obs::MetricsRegistry& reg = service_.tenant_metrics(session->session);
    reg.histogram(flow::kServerQueueWaitSeconds)
        .record(static_cast<double>(t_encode0 - t_request) / 1e9);
    reg.histogram(flow::kServerEncodeSeconds)
        .record(static_cast<double>(encode_ns) / 1e9);
    reg.histogram(flow::kServerSendSeconds)
        .record(static_cast<double>(t_send1 - t_send0) / 1e9);
  }
  if (!session->stats.ended && !session->ready_valid &&
      session->terminal_error.empty()) {
    // Read ahead: the reply for this request is already on the wire, so the
    // produce + encode of the next batch runs while the client decodes and
    // consumes — a pipelined client's following NEXT is answered instantly.
    const std::int64_t t_ra0 =
        flow_on ? static_cast<std::int64_t>(tracer.now_ns()) : 0;
    try {
      std::int64_t ra_produce_ns = 0;
      std::int64_t ra_encode_ns = 0;
      if (encode_next_batch(*session, degraded, session->ready,
                            session->ready_seq, ra_produce_ns,
                            ra_encode_ns)) {
        session->ready_valid = true;
        if (flow_on) {
          // Client-invisible overlapped work: shown in the merged trace
          // (parented to the request that triggered it), but deliberately
          // not charged to any attribution histogram.
          tracer.record(flow::kServerReadaheadSpan, "flow",
                        static_cast<std::uint64_t>(t_ra0), tracer.now_ns(),
                        link);
        }
      } else {
        std::lock_guard lock(roster_mutex_);
        session->stats.ended = true;
      }
    } catch (const std::exception& e) {
      // Nothing to reply to here; the eviction is reported to the next
      // request instead, under its own class.
      std::lock_guard lock(roster_mutex_);
      session->terminal_error = e.what();
      session->terminal_class = classify(e);
    }
  }
}

bool WireServer::encode_next_batch(Session& session, bool degraded, Bytes& out,
                                   std::uint64_t& seq,
                                   std::int64_t& produce_ns,
                                   std::int64_t& encode_ns) {
  obs::Tracer& tracer = obs::Tracer::global();
  const std::int64_t t0 = static_cast<std::int64_t>(tracer.now_ns());
  pipeline::Batch batch;
  if (!service_.next_batch(session.session, batch)) return false;
  const std::int64_t t1 = static_cast<std::int64_t>(tracer.now_ns());
  BatchPayload payload;
  payload.seq = session.next_seq;
  payload.batch = std::move(batch);
  // Serialize the tensors straight into the wire envelope — the retained
  // bytes ARE the frame, with no intermediate payload buffer — recycling
  // the retired frame's storage so steady-state serving does not allocate.
  ByteWriter w = begin_frame(std::move(out));
  payload.encode_into(w);
  out = finish_frame(std::move(w), FrameType::kBatch,
                     degraded ? kFlagDegraded : std::uint8_t{0});
  produce_ns = t1 - t0;
  encode_ns = static_cast<std::int64_t>(tracer.now_ns()) - t1;
  seq = session.next_seq;
  session.next_seq += 1;
  std::lock_guard lock(roster_mutex_);
  session.stats.batches += 1;
  session.stats.samples += payload.batch.samples.size();
  return true;
}

WireServer::Session* WireServer::live_session(Conn& conn,
                                              const std::string& attached) {
  std::string evicted;
  ErrorClass error_class = ErrorClass::kConfig;
  {
    std::lock_guard lock(roster_mutex_);
    const auto it = sessions_.find(attached);
    SCIPREP_ASSERT(it != sessions_.end());
    Session& session = it->second;
    if (session.terminal_error.empty()) return &session;
    evicted = session.terminal_error;
    error_class = std::exchange(session.terminal_class, ErrorClass::kConfig);
  }
  send_error(conn, error_class,
             fmt("tenant '{}' was evicted: {}", attached, evicted));
  return nullptr;
}

void WireServer::handle_detach(Conn& conn, const std::string& attached) {
  const std::shared_lock sweep(sweep_mutex_);
  std::lock_guard lock(roster_mutex_);
  const auto it = sessions_.find(attached);
  SCIPREP_ASSERT(it != sessions_.end());
  Session& session = it->second;
  if (service_.session_state(session.session) ==
      serve::SessionState::kActive) {
    service_.close_session(session.session);
  }
  DetachedPayload reply;
  reply.batches = session.stats.batches;
  reply.samples = session.stats.samples;
  reply.attaches = session.stats.attaches;
  reply.sweeps = session.stats.sweeps;
  reply.digest_crc = service_.digest(session.session).stream_digest();
  session.stats.detached = true;
  session.owner = -1;
  respond(conn, FrameType::kDetached, 0, reply);
  roster_cv_.notify_all();
}

void WireServer::handle_clock_sync(Conn& conn, const FrameView& request) {
  // Stamp as late as possible: the estimator's error bound is half the
  // round trip, so every instruction between recv and this read widens it.
  ClockSyncPayload sync = ClockSyncPayload::decode(request.payload);
  sync.t_server_ns = obs::Tracer::global().now_ns();
  respond(conn, FrameType::kClockSync, 0, sync);
}

void WireServer::handle_stats(Conn& conn, const std::string& attached) {
  const std::shared_lock sweep(sweep_mutex_);
  Session* const session = live_session(conn, attached);
  if (session == nullptr) return;
  StatsPayload reply;
  reply.line.scope = fmt("tenant/{}", attached);
  reply.line.t = static_cast<double>(obs::Tracer::global().now_ns()) / 1e9;
  // Totals plus the delta since the last pull on this session (the first
  // pull ships everything), so a puller's series reconciles on its own.
  reply.line.totals = service_.tenant_snapshot(session->session);
  reply.line.delta =
      obs::snapshot_delta(reply.line.totals, session->stats_sent);
  session->stats_sent = reply.line.totals;
  respond(conn, FrameType::kStats, 0, reply);
}

void WireServer::handle_trace(Conn& conn, const FrameView& request) {
  const TraceRequestPayload req = TraceRequestPayload::decode(request.payload);
  obs::Tracer& tracer = obs::Tracer::global();
  TracePayload reply;
  reply.pid = static_cast<std::int64_t>(::getpid());
  reply.process_name = tracer.process_name();
  reply.spans_dropped = tracer.dropped_total();
  reply.spans = req.max_spans == 0
                    ? tracer.snapshot()
                    : tracer.snapshot_tail(req.max_spans);
  respond(conn, FrameType::kTrace, 0, reply);
}

void WireServer::send_error(Conn& conn, ErrorClass error_class,
                            std::string message) {
  ErrorPayload payload;
  payload.error_class = static_cast<std::uint8_t>(error_class);
  payload.message = std::move(message);
  respond(conn, FrameType::kError, 0, payload);
  errors_sent_.add(1);
}

void WireServer::emit_wire_fault(const std::string& tenant,
                                 std::string detail) {
  log_warn(fmt("wire: {}", detail));
  if (!config_.on_event) return;
  fault::RecoveryEvent event;
  event.kind = fault::EventKind::kWireFault;
  event.stage = "wire";
  event.detail = std::move(detail);
  event.scope = tenant;
  config_.on_event(event);
}

void WireServer::release_owner(long conn_id) {
  std::lock_guard lock(roster_mutex_);
  for (auto& [name, session] : sessions_) {
    if (session.owner == conn_id) session.owner = -1;
  }
}

}  // namespace sciprep::wire
