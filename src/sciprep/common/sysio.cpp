#include "sciprep/common/sysio.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "sciprep/common/error.hpp"

namespace sciprep::sysio {

namespace {

[[noreturn]] void throw_errno(const char* verb, int err) {
  const std::string msg =
      fmt("sysio: {} failed: {} (errno {})", verb, std::strerror(err), err);
  // Timeouts and vanished peers are the transport faults the retry/reconnect
  // policies exist for; everything else is a real host I/O defect.
  if (err == EAGAIN || err == EWOULDBLOCK || err == ETIMEDOUT ||
      err == EPIPE || err == ECONNRESET) {
    throw TransientError(msg);
  }
  throw IoError(msg);
}

/// open(2) with EINTR restart; returns -1 with errno set on failure.
int open_restart(const char* path, int flags, mode_t mode) {
  for (;;) {
    const int fd = ::open(path, flags, mode);  // NOLINT(cppcoreguidelines-pro-type-vararg)
    if (fd >= 0 || errno != EINTR) return fd;
  }
}

/// RAII descriptor for the file-level helpers. close(2) after EINTR is
/// unspecified by POSIX; the descriptor must be treated as gone either way,
/// so close is called exactly once and EINTR is not retried.
struct Fd {
  int fd = -1;
  explicit Fd(int f) : fd(f) {}
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  ~Fd() {
    if (fd >= 0) ::close(fd);
  }
  /// Close now and report failure (for write paths, where a deferred error
  /// from close is a short write in disguise).
  void close_checked(const std::string& path) {
    const int f = fd;
    fd = -1;
    if (::close(f) != 0 && errno != EINTR) {
      throw IoError(fmt("sysio: close of '{}' failed: {}", path,
                        std::strerror(errno)));
    }
  }
};

void write_open(const std::string& path, int flags, ByteSpan data) {
  const int raw = open_restart(path.c_str(), flags | O_WRONLY | O_CLOEXEC, 0644);
  if (raw < 0) {
    throw IoError(fmt("sysio: cannot open '{}' for writing: {}", path,
                      std::strerror(errno)));
  }
  Fd fd(raw);
  if (!data.empty()) write_full(fd.fd, data.data(), data.size());
  fd.close_checked(path);
}

}  // namespace

std::size_t read_full(int fd, void* buf, std::size_t n) {
  auto* p = static_cast<std::uint8_t*>(buf);
  std::size_t got = 0;
  while (got < n) {
    const ssize_t rc = ::read(fd, p + got, n - got);
    if (rc > 0) {
      got += static_cast<std::size_t>(rc);
      continue;
    }
    if (rc == 0) break;  // end of stream: short return, caller's framing decides
    if (errno == EINTR) continue;
    throw_errno("read", errno);
  }
  return got;
}

void write_full(int fd, const void* buf, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(buf);
  std::size_t put = 0;
  while (put < n) {
    const ssize_t rc = ::write(fd, p + put, n - put);
    if (rc > 0) {
      put += static_cast<std::size_t>(rc);
      continue;
    }
    // write(2) returning 0 for a non-zero count is only possible for odd
    // descriptor types; treat it like EINTR and try again rather than spin
    // silently or report a bogus errno.
    if (rc == 0 || errno == EINTR) continue;
    throw_errno("write", errno);
  }
}

Bytes read_file(const std::string& path) {
  const int raw = open_restart(path.c_str(), O_RDONLY | O_CLOEXEC, 0);
  if (raw < 0) {
    throw IoError(fmt("sysio: cannot open '{}' for reading: {}", path,
                      std::strerror(errno)));
  }
  Fd fd(raw);
  struct stat st{};
  if (::fstat(fd.fd, &st) != 0) {
    throw IoError(fmt("sysio: cannot stat '{}': {}", path,
                      std::strerror(errno)));
  }
  // The stat size is only a hint: procfs files report 0, and a concurrently
  // written file can grow or shrink between fstat and read. Start from the
  // hint and keep extending until the stream actually ends.
  Bytes data(std::max<std::size_t>(
      st.st_size > 0 ? static_cast<std::size_t>(st.st_size) : 0, 4096));
  std::size_t got = read_full(fd.fd, data.data(), data.size());
  while (got == data.size()) {
    data.resize(data.size() + std::max<std::size_t>(data.size() / 2, 4096));
    got += read_full(fd.fd, data.data() + got, data.size() - got);
  }
  data.resize(got);
  return data;
}

void write_file(const std::string& path, ByteSpan data) {
  write_open(path, O_CREAT | O_TRUNC, data);
}

void append_file(const std::string& path, ByteSpan data) {
  write_open(path, O_CREAT | O_APPEND, data);
}

void write_file_atomic(const std::string& path, ByteSpan data) {
  const std::string tmp = path + ".tmp";
  write_file(tmp, data);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    const int err = errno;
    std::remove(tmp.c_str());
    throw IoError(fmt("sysio: cannot rename '{}' over '{}': {}", tmp, path,
                      std::strerror(err)));
  }
}

}  // namespace sciprep::sysio
