// WireServer — cross-process front of a DataService (sciprep::wire).
//
// One WireServer listens on an AF_UNIX socket and maps each connection onto
// a tenant session of the DataService it fronts. The service's existing
// guarantees pass through unchanged; the server adds exactly the properties
// a process boundary demands:
//
//   * Lease from liveness. Every request a connection makes (NEXT, BEAT)
//     beats its tenant's heartbeat-lease slot, so the lease now tracks real
//     socket traffic. A consumer that is SIGKILLed simply stops sending;
//     the maintenance thread's sweep_leases() pass then suspends its
//     session — checkpointing via guard::Snapshot and releasing its charge
//     — exactly as for an in-process dead consumer. Co-tenants never
//     notice.
//
//   * Exactly-once delivery across reconnects. Batches are sequenced per
//     tenant; NEXT carries the client's delivered count as an ack. The
//     server produces fresh when the ack matches its counter, re-sends its
//     retained last frame when the client is one behind (the reply was in
//     flight when the connection died), and rejects anything else as a
//     protocol error. A reconnecting client re-ATTACHes under the same
//     session id (taking over a live session or reattaching a swept one)
//     and the tenant's GlobalStreamDigest spans the disconnect.
//
//   * Hostile-input containment. A connection that sends garbage gets a
//     typed ERROR frame or is dropped; its tenant's session and every other
//     connection are untouched. Overload never hangs a client: admission
//     shedding surfaces as the DEGRADED flag on ATTACHED/BATCH frames, and
//     rejection as a transient ERROR the client can back off on.
//
// Request handlers hold a shared lock while the sweeper holds a unique one:
// DataService's "a session's next_batch must not race its own sweep"
// contract is kept by construction even with slow clients on live sockets.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "sciprep/fault/fault.hpp"
#include "sciprep/obs/metrics.hpp"
#include "sciprep/serve/service.hpp"
#include "sciprep/wire/frame.hpp"
#include "sciprep/wire/socket.hpp"

namespace sciprep::wire {

struct WireServerConfig {
  /// AF_UNIX socket path to listen on (must fit sockaddr_un, ~107 bytes).
  std::string socket_path;
  /// Per-connection socket send/receive deadline. Bounds how long a handler
  /// can be pinned by a stalled peer; an idle-but-live connection just sees
  /// the read time out and polls again.
  double request_timeout_seconds = 5.0;
  /// Optional injector for transport-fault drills: site wire.frame_crc
  /// mutates outgoing BATCH frames (the client must detect every flip),
  /// site wire.conn_drop severs a connection mid-request instead of
  /// replying (the client must reconnect and resume exactly-once).
  fault::Injector* injector = nullptr;
  /// Incident sink for transport faults (kWireFault, scoped to the tenant
  /// where one is attached). Same contract as ServiceConfig::on_event.
  fault::RecoveryListener on_event;
  /// wire.* counters land here; null means the fronted service's registry.
  obs::MetricsRegistry* metrics = nullptr;
  /// Artificial per-batch send delay (seconds), charged to the
  /// flow.server.send stage like any real socket stall — a deterministic way
  /// to drill the analyzer's wire-bound verdict without an actual slow link.
  double throttle_send_seconds = 0;
};

/// Per-tenant transport accounting, exposed for validation and carried to
/// the client in the DETACHED frame.
struct TenantWireStats {
  std::uint64_t batches = 0;   // batches produced over the wire
  std::uint64_t samples = 0;   // samples across those batches
  std::uint64_t attaches = 0;  // accepted ATTACHes (1 + reconnects/takeovers)
  std::uint64_t sweeps = 0;    // lease sweeps that suspended this tenant
  std::uint64_t resends = 0;   // retained-frame redeliveries
  bool ended = false;          // source stream exhausted (END sendable)
  bool detached = false;       // clean DETACH completed
};

class WireServer {
 public:
  /// Serve `service`'s dataset to the registered `tenants`. Clients attach
  /// by tenant name; the spec (pipeline config, epochs, weight) lives
  /// server-side — the wire carries names and batches, never configs.
  /// `service` must outlive the server.
  WireServer(serve::DataService& service,
             std::vector<serve::TenantSpec> tenants, WireServerConfig config);
  ~WireServer();

  WireServer(const WireServer&) = delete;
  WireServer& operator=(const WireServer&) = delete;

  /// Bind, listen, and start the accept + lease-sweep threads.
  void start();
  /// Stop accepting, sever every connection, join all threads. Idempotent.
  void stop();

  /// Block until every registered tenant has cleanly detached after END, or
  /// the timeout expires. Returns whether all detached.
  bool wait_all_detached(double timeout_seconds);

  [[nodiscard]] TenantWireStats tenant_stats(const std::string& name) const;
  /// The DataService session id serving `name`, or -1 before first attach.
  [[nodiscard]] int tenant_session(const std::string& name) const;
  [[nodiscard]] const std::string& socket_path() const noexcept {
    return config_.socket_path;
  }
  [[nodiscard]] std::uint64_t sweeps_total() const noexcept {
    return sweeps_total_.load(std::memory_order_relaxed);
  }

 private:
  struct Session {
    int session = -1;            // DataService session id
    std::uint64_t next_seq = 0;  // seq the next service produce receives
    /// The last frame committed to the wire, kept for ack-window resend.
    Bytes retained;
    std::uint64_t retained_seq = 0;
    bool retained_valid = false;
    /// Read-ahead: the next frame, produced and encoded right after the
    /// previous send so a pipelined client's ack is answered instantly and
    /// the pipeline runs while the consumer consumes. Never been sent.
    /// Promotion swaps it with `retained`: while !ready_valid it holds the
    /// retired frame, whose storage the next read-ahead encodes into.
    Bytes ready;
    std::uint64_t ready_seq = 0;
    bool ready_valid = false;
    std::uint64_t send_ops = 0;  // injector op counter (fresh per send)
    long owner = -1;             // connection currently attached, -1 if none
    /// Written only under roster_mutex_: tenant_stats() copies it from
    /// other threads. The rest of a Session belongs to its owning
    /// connection's handler.
    TenantWireStats stats;
    /// Totals as of the last STATS reply on this session; the next reply's
    /// delta is taken against this (everything on the first pull).
    obs::MetricsSnapshot stats_sent;
    /// Set when the tenant's pipeline escalated: the service evicted the
    /// session and every further request gets this error back.
    std::string terminal_error;
    /// The class the next terminal-error reply carries: the eviction's own
    /// class while no reply has reported it yet (it happened during
    /// read-ahead), then kConfig — the session is gone for good.
    ErrorClass terminal_class = ErrorClass::kConfig;
  };

  /// One accepted connection: its socket and the buffer its handler builds
  /// every reply frame in (a BATCH frame is written from its Session).
  struct Conn {
    Socket socket;
    Bytes send_buf;
  };

  void accept_loop();
  void sweep_loop();
  void handle_connection(Socket socket, long conn_id);
  /// Dispatch one request frame; returns false to sever the connection.
  bool dispatch(Conn& conn, long conn_id, std::string& attached,
                const FrameView& request);
  void handle_attach(Conn& conn, long conn_id, std::string& attached,
                     const FrameView& request);
  void handle_next(Conn& conn, long conn_id, const std::string& attached,
                   const FrameView& request);
  /// Pull one batch from the service and encode it as a BATCH frame into
  /// `out` (seq tag in `seq`). False when the stream is exhausted; service
  /// eviction propagates as the thrown exception. `produce_ns`/`encode_ns`
  /// receive the measured durations of the two phases for flow attribution.
  bool encode_next_batch(Session& session, bool degraded, Bytes& out,
                         std::uint64_t& seq, std::int64_t& produce_ns,
                         std::int64_t& encode_ns);
  /// The attached tenant's session, or nullptr after replying with the
  /// terminal error of a tenant the service evicted (under the eviction's
  /// own class the first time a read-ahead eviction is reported).
  Session* live_session(Conn& conn, const std::string& attached);
  void handle_detach(Conn& conn, const std::string& attached);
  /// flow handlers: steady-clock exchange, per-tenant fleet.v1 line, and
  /// the server span-ring pull.
  void handle_clock_sync(Conn& conn, const FrameView& request);
  void handle_stats(Conn& conn, const std::string& attached);
  void handle_trace(Conn& conn, const FrameView& request);
  /// Send one frame and count it in wire.frames_sent_total.
  template <typename Payload>
  void respond(Conn& conn, FrameType type, std::uint8_t flags,
               const Payload& payload) {
    send_frame(conn.socket, conn.send_buf, type, flags, payload);
    frames_sent_.add(1);
  }
  void send_error(Conn& conn, ErrorClass error_class, std::string message);
  void emit_wire_fault(const std::string& tenant, std::string detail);
  void release_owner(long conn_id);

  serve::DataService& service_;
  WireServerConfig config_;
  std::map<std::string, serve::TenantSpec> specs_;
  obs::MetricsRegistry* metrics_;

  obs::Counter& connections_total_;
  obs::Counter& frames_received_;
  obs::Counter& frames_sent_;
  obs::Counter& errors_sent_;
  obs::Counter& attaches_total_;
  obs::Counter& batches_sent_;
  obs::Counter& resends_total_;
  obs::Counter& sweeps_counter_;

  Socket listener_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> started_{false};
  std::atomic<std::uint64_t> sweeps_total_{0};

  /// Handlers shared, sweeper unique: a sweep pass never overlaps a request.
  std::shared_mutex sweep_mutex_;
  /// Guards sessions_/connection bookkeeping + the all-detached condition.
  mutable std::mutex roster_mutex_;
  std::condition_variable roster_cv_;
  std::map<std::string, Session> sessions_;

  std::thread accept_thread_;
  std::thread sweep_thread_;
  std::mutex threads_mutex_;
  std::vector<std::thread> conn_threads_;
  /// Live connection fds by id, so stop() can shutdown() each to wake its
  /// handler out of a blocked read. The handler owns the close.
  std::map<long, int> conn_fds_;
  long next_conn_id_ = 0;
};

}  // namespace sciprep::wire
