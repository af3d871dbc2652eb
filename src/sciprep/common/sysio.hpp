// EINTR/partial-operation-safe system I/O.
//
// Every byte-moving path in sciprep — dataset files, checkpoint writes,
// incident/telemetry emits, and the wire transport's sockets — funnels
// through these helpers, so the tree contains exactly one audited
// read/write loop. POSIX read(2)/write(2) may move fewer bytes than asked
// (signals, pipe buffers, socket windows) and may fail with EINTR without
// moving anything; naive callers turn both into silent truncation. The
// loops here restart on EINTR, continue after partial transfers, and map
// errno onto the sciprep error taxonomy:
//
//   EAGAIN/EWOULDBLOCK (a deadline socket timed out), EPIPE/ECONNRESET
//   (the peer vanished) -> TransientError, so retry/reconnect policies
//   engage; everything else -> IoError.
//
// read_full() returns short only at end-of-stream — a caller that needs an
// exact count checks the return and reports truncation with its own
// framing context.
#pragma once

#include <cstddef>
#include <string>

#include "sciprep/common/buffer.hpp"

namespace sciprep::sysio {

/// Read up to `n` bytes from `fd` into `buf`, restarting on EINTR and
/// continuing after partial reads. Returns the number of bytes read, which
/// is < `n` only when the stream ended first. Throws TransientError on
/// timeout/peer-reset errno, IoError otherwise.
std::size_t read_full(int fd, void* buf, std::size_t n);

/// Write all `n` bytes of `buf` to `fd`, restarting on EINTR and continuing
/// after partial writes. Throws TransientError on timeout/broken-pipe errno,
/// IoError otherwise.
void write_full(int fd, const void* buf, std::size_t n);

/// Read a whole regular file. Throws IoError if it cannot be opened.
Bytes read_file(const std::string& path);

/// Create/truncate `path` and write `data` through the audited loop.
void write_file(const std::string& path, ByteSpan data);

/// Append `data` to `path`, creating it if absent.
void append_file(const std::string& path, ByteSpan data);

/// Write `data` to `path + ".tmp"` and rename it over `path`, so readers see
/// either the old complete file or the new one, never a torn write. On a
/// failed rename the tmp file is removed and IoError thrown.
void write_file_atomic(const std::string& path, ByteSpan data);

}  // namespace sciprep::sysio
