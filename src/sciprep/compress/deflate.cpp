#include "sciprep/compress/deflate.hpp"

#include <zlib.h>

#include <algorithm>
#include <climits>
#include <cstring>
#include <memory>

#include "sciprep/common/error.hpp"
#include "sciprep/compress/gzip.hpp"

namespace sciprep::compress {

namespace {

// zlib's window-bits selectors: negative means a raw DEFLATE stream, and
// 16 + 15 one gzip member whose header, CRC-32 and ISIZE zlib checks itself.
constexpr int kRawWindowBits = -15;
constexpr int kGzipWindowBits = 16 + 15;

// A DEFLATE stream cannot expand more than 1032:1 (one 258-byte match per two
// bits), so no valid stream of n bytes inflates past 1032 n.
constexpr std::size_t kMaxInflateRatio = 1032;

/// Calls deflateEnd or inflateEnd on a z_stream however its scope is left.
using StreamEnd = std::unique_ptr<z_stream, int (*)(z_streamp)>;

/// Points zlib's input and output windows past what it has already consumed
/// and produced. z_stream counts in uInt, so a window holds at most 4 GiB.
void refill(z_stream& z, ByteSpan in, Bytes& out) {
  // zlib never writes through next_in; the cast is its C API's.
  z.next_in = const_cast<Bytef*>(in.data()) + z.total_in;
  z.avail_in = static_cast<uInt>(
      std::min<std::size_t>(in.size() - z.total_in, UINT_MAX));
  z.next_out = out.data() + z.total_out;
  z.avail_out = static_cast<uInt>(
      std::min<std::size_t>(out.size() - z.total_out, UINT_MAX));
}

Bytes compress_stream(ByteSpan input, int window_bits, const char* what) {
  z_stream z{};
  if (deflateInit2(&z, Z_DEFAULT_COMPRESSION, Z_DEFLATED, window_bits, 8,
                   Z_DEFAULT_STRATEGY) != Z_OK) {
    throw Error(fmt("{}: zlib init failed", what));
  }
  const StreamEnd end(&z, deflateEnd);
  // deflateBound leaves room for the whole stream, so deflate only returns
  // Z_OK while it still has input windows to take.
  Bytes out(deflateBound(&z, input.size()));
  int rc = Z_OK;
  while (rc == Z_OK) {
    refill(z, input, out);
    const bool last = z.total_in + z.avail_in == input.size();
    rc = ::deflate(&z, last ? Z_FINISH : Z_NO_FLUSH);
  }
  SCIPREP_ASSERT(rc == Z_STREAM_END);
  out.resize(z.total_out);
  // The bound-sized buffer is resident (zero-filled); keep only the stream.
  out.shrink_to_fit();
  return out;
}

Bytes decompress_stream(ByteSpan input, int window_bits, std::size_t size_hint,
                        const char* what) {
  if (input.empty()) throw_format("{}: empty stream", what);
  z_stream z{};
  if (inflateInit2(&z, window_bits) != Z_OK) {
    throw Error(fmt("{}: zlib init failed", what));
  }
  const StreamEnd end(&z, inflateEnd);
  const std::size_t cap = kMaxInflateRatio * input.size();
  // Never empty: zlib rejects a null output window.
  Bytes out(std::min(cap, std::max<std::size_t>(size_hint, 1)));
  for (;;) {
    refill(z, input, out);
    const int rc = ::inflate(&z, Z_NO_FLUSH);
    if (rc == Z_STREAM_END) break;
    if (rc == Z_DATA_ERROR || rc == Z_NEED_DICT) {
      throw_format("{}: {}", what,
                   z.msg != nullptr ? z.msg : "needs a preset dictionary");
    }
    if (rc == Z_MEM_ERROR) throw Error(fmt("{}: zlib out of memory", what));
    // Otherwise zlib stopped for want of input or output room.
    SCIPREP_ASSERT(rc == Z_OK || rc == Z_BUF_ERROR);
    if (z.total_out < out.size()) {
      if (z.total_in == input.size()) {
        throw_format("{}: stream ends before its final block", what);
      }
      continue;
    }
    if (out.size() == cap) {
      throw_format("{}: output passes DEFLATE's 1032:1 bound", what);
    }
    out.resize(std::min(cap, std::max<std::size_t>(2 * out.size(), 4096)));
  }
  if (z.total_in != input.size()) {
    throw_format("{}: {} bytes trail the stream", what,
                 input.size() - z.total_in);
  }
  out.resize(z.total_out);
  return out;
}

}  // namespace

Bytes deflate(ByteSpan input) {
  return compress_stream(input, kRawWindowBits, "deflate");
}

Bytes inflate(ByteSpan input, std::size_t size_hint) {
  return decompress_stream(input, kRawWindowBits, size_hint, "deflate");
}

Bytes gzip_compress(ByteSpan input) {
  return compress_stream(input, kGzipWindowBits, "gzip");
}

Bytes gzip_decompress(ByteSpan input) {
  // ISIZE, the member's last four bytes, sizes the output in one allocation.
  // zlib checks it only after inflating, so it is a hint like any other.
  std::uint32_t isize = 0;
  if (input.size() >= sizeof(isize)) {
    std::memcpy(&isize, input.data() + input.size() - sizeof(isize),
                sizeof(isize));
  }
  return decompress_stream(input, kGzipWindowBits, isize, "gzip");
}

}  // namespace sciprep::compress
