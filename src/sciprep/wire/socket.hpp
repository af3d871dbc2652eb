// AF_UNIX socket plumbing shared by WireServer and WireClient.
//
// Thin RAII + errno-mapping layer over the BSD socket calls; all byte
// movement goes through sysio::read_full/write_full, so the wire transport
// inherits the one audited EINTR/partial-I/O loop. There is one way to send
// a frame and one way to receive one:
//
//   * send_frame() serializes a payload's encode_into() straight into a
//     begin_frame()/finish_frame() envelope in a caller-owned, reused
//     buffer and writes it.
//   * recv_frame() reads the fixed header into a caller-owned, grow-only
//     buffer, validates it before trusting the declared length, reads the
//     remainder, and returns decode_frame_view() over the envelope — the
//     payload is parsed in place, and every malformed or torn input
//     surfaces as a typed error, never as UB or an unbounded allocation.
#pragma once

#include <optional>
#include <string>
#include <utility>

#include "sciprep/common/buffer.hpp"
#include "sciprep/common/sysio.hpp"
#include "sciprep/wire/frame.hpp"

namespace sciprep::wire {

/// Owning socket descriptor. Move-only; closes on destruction.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  ~Socket() { close(); }

  [[nodiscard]] int fd() const noexcept { return fd_; }
  [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }
  void close() noexcept;

 private:
  int fd_ = -1;
};

/// Bind + listen on an AF_UNIX socket at `path`, replacing any stale socket
/// file left by a crashed predecessor. Throws ConfigError when the path does
/// not fit sockaddr_un, IoError on system failure.
[[nodiscard]] Socket listen_unix(const std::string& path, int backlog);

/// Accept one connection; blocks up to the listener's receive deadline when
/// one is set. Returns an invalid Socket on timeout (so an accept loop can
/// poll a stop flag), throws IoError on real failure.
[[nodiscard]] Socket accept_unix(const Socket& listener);

/// Connect to the AF_UNIX socket at `path`. Failure to connect (server not
/// up yet, socket file missing) is a TransientError — the client's backoff
/// loop owns the retry; other failures are IoError.
[[nodiscard]] Socket connect_unix(const std::string& path);

/// Arm SO_RCVTIMEO/SO_SNDTIMEO so every read/write on `socket` fails with
/// a TransientError after `seconds` instead of blocking forever. 0 disables.
void set_io_deadline(const Socket& socket, double seconds);

/// Ignore SIGPIPE process-wide (idempotent). A peer that vanishes mid-write
/// must surface as a TransientError from write_full, not kill the process.
void ignore_sigpipe() noexcept;

/// Ask the kernel for `bytes` of send + receive buffer on `socket`. A BATCH
/// frame is a few hundred KB; with the default ~208 KB AF_UNIX buffer the
/// sender blocks mid-frame until the receiver drains, serializing transfer
/// into the server's produce loop. A buffer at least one frame deep lets
/// send() complete immediately and the copy overlap the next produce. The
/// kernel clamps to net.core.{w,r}mem_max — best effort, never an error.
void set_socket_buffers(const Socket& socket, int bytes) noexcept;

/// Send one frame: `payload` (any payload struct, or EmptyPayload) is
/// serialized by its encode_into() directly into the envelope, built in the
/// caller-owned `buf`. The frame's storage is handed back in `buf`, so a
/// connection that keeps one send buffer stops allocating for its control
/// frames once it has sent its largest one.
template <typename Payload>
void send_frame(const Socket& socket, Bytes& buf, FrameType type,
                std::uint8_t flags, const Payload& payload) {
  ByteWriter w = begin_frame(std::move(buf));
  payload.encode_into(w);
  buf = finish_frame(std::move(w), type, flags);
  sysio::write_full(socket.fd(), buf.data(), buf.size());
}

/// Receive one frame into `buf` and return a view of it; the payload points
/// into `buf` and is valid until the next receive into it. `buf` only ever
/// grows, so a connection that reuses one buffer stops allocating (and
/// zero-filling) once it has seen its largest frame. `eof_ok` selects what
/// a clean close before the first header byte means: true returns nullopt,
/// false throws TruncatedError. A close *inside* a frame always throws
/// TruncatedError.
[[nodiscard]] std::optional<FrameView> recv_frame(const Socket& socket,
                                                  Bytes& buf, bool eof_ok);

}  // namespace sciprep::wire
