#include "sciprep/wire/socket.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstring>

#include "sciprep/common/error.hpp"
#include "sciprep/common/sysio.hpp"

namespace sciprep::wire {

namespace {

sockaddr_un make_address(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof(addr.sun_path)) {
    throw ConfigError(fmt(
        "wire: socket path '{}' must be 1..{} bytes for AF_UNIX", path,
        sizeof(addr.sun_path) - 1));
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

int make_socket() {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    throw IoError(fmt("wire: socket() failed: {}", std::strerror(errno)));
  }
  return fd;
}

}  // namespace

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Socket::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Socket listen_unix(const std::string& path, int backlog) {
  const sockaddr_un addr = make_address(path);
  // A stale socket file from a crashed predecessor makes bind() fail with
  // EADDRINUSE even though nobody is listening; unlink first. A *live*
  // predecessor also loses its file this way — single-writer ownership of
  // the path is the caller's contract, as for any pidfile.
  ::unlink(path.c_str());
  Socket s(make_socket());
  if (::bind(s.fd(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    throw IoError(
        fmt("wire: bind('{}') failed: {}", path, std::strerror(errno)));
  }
  if (::listen(s.fd(), backlog) != 0) {
    throw IoError(
        fmt("wire: listen('{}') failed: {}", path, std::strerror(errno)));
  }
  return s;
}

Socket accept_unix(const Socket& listener) {
  for (;;) {
    const int fd = ::accept(listener.fd(), nullptr, nullptr);
    if (fd >= 0) return Socket(fd);
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return Socket();
    throw IoError(fmt("wire: accept() failed: {}", std::strerror(errno)));
  }
}

Socket connect_unix(const std::string& path) {
  const sockaddr_un addr = make_address(path);
  Socket s(make_socket());
  for (;;) {
    if (::connect(s.fd(), reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      return s;
    }
    if (errno == EINTR) continue;
    // The server not being up (yet, or anymore) is the reconnect loop's
    // bread and butter; anything else is a real host defect.
    if (errno == ENOENT || errno == ECONNREFUSED || errno == EAGAIN) {
      throw TransientError(fmt("wire: connect('{}') failed: {}", path,
                               std::strerror(errno)));
    }
    throw IoError(
        fmt("wire: connect('{}') failed: {}", path, std::strerror(errno)));
  }
}

void set_io_deadline(const Socket& socket, double seconds) {
  timeval tv{};
  if (seconds > 0) {
    tv.tv_sec = static_cast<time_t>(seconds);
    tv.tv_usec = static_cast<suseconds_t>(
        (seconds - std::floor(seconds)) * 1e6);
  }
  if (::setsockopt(socket.fd(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) !=
          0 ||
      ::setsockopt(socket.fd(), SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv)) !=
          0) {
    throw IoError(
        fmt("wire: setsockopt(SO_*TIMEO) failed: {}", std::strerror(errno)));
  }
}

void set_socket_buffers(const Socket& socket, int bytes) noexcept {
  // Best effort by design: the kernel clamps to net.core.{w,r}mem_max and a
  // clamped (even default-sized) buffer is merely slower, never incorrect.
  ::setsockopt(socket.fd(), SOL_SOCKET, SO_SNDBUF, &bytes, sizeof(bytes));
  ::setsockopt(socket.fd(), SOL_SOCKET, SO_RCVBUF, &bytes, sizeof(bytes));
}

void ignore_sigpipe() noexcept {
  // Once per process is enough, but calling again is harmless.
  std::signal(SIGPIPE, SIG_IGN);
}

std::optional<FrameView> recv_frame(const Socket& socket, Bytes& buf,
                                    bool eof_ok) {
  if (buf.size() < kHeaderSize) buf.resize(kHeaderSize);
  const std::size_t got =
      sysio::read_full(socket.fd(), buf.data(), kHeaderSize);
  if (got == 0 && eof_ok) return std::nullopt;
  if (got < kHeaderSize) {
    throw TruncatedError(
        fmt("wire: connection closed inside a frame header ({} of {} bytes)",
            got, kHeaderSize),
        got);
  }
  // The declared length is bounds-checked before a single payload byte is
  // read or a buffer sized from it — a hostile header cannot drive an
  // unbounded allocation.
  const std::uint32_t length = decode_header(ByteSpan(buf).first(kHeaderSize));
  const std::size_t total = kHeaderSize + length + kTrailerSize;
  if (buf.size() < total) buf.resize(total);
  const std::size_t rest = total - kHeaderSize;
  const std::size_t more =
      sysio::read_full(socket.fd(), buf.data() + kHeaderSize, rest);
  if (more < rest) {
    throw TruncatedError(
        fmt("wire: connection closed inside a frame body ({} of {} bytes)",
            kHeaderSize + more, total),
        kHeaderSize + more);
  }
  return decode_frame_view(ByteSpan(buf).first(total));
}

}  // namespace sciprep::wire
