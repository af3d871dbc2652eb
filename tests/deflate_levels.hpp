// Raw DEFLATE streams written at zlib levels other than the library's one.
//
// compress::deflate writes zlib's default level only, but a stored stream
// may come from any encoder at any level (TensorFlow's GZIP writer, an older
// build of this library), and compress::inflate must read them all.
#pragma once

#include <zlib.h>

#include "sciprep/common/buffer.hpp"
#include "sciprep/common/error.hpp"
#include "sciprep/compress/deflate.hpp"

namespace sciprep::compress {

/// The zlib level a test stream is written at: 1, the library's default (6),
/// or 9.
enum class EncoderLevel { kFast, kDefault, kBest };

inline Bytes deflate_at(ByteSpan input, EncoderLevel level) {
  if (level == EncoderLevel::kDefault) return deflate(input);
  z_stream z{};
  SCIPREP_ASSERT(deflateInit2(&z, level == EncoderLevel::kFast ? 1 : 9,
                              Z_DEFLATED, -15, 8, Z_DEFAULT_STRATEGY) == Z_OK);
  Bytes out(deflateBound(&z, input.size()));
  z.next_in = const_cast<Bytef*>(input.data());
  z.avail_in = static_cast<uInt>(input.size());
  z.next_out = out.data();
  z.avail_out = static_cast<uInt>(out.size());
  SCIPREP_ASSERT(::deflate(&z, Z_FINISH) == Z_STREAM_END);
  out.resize(z.total_out);
  deflateEnd(&z);
  return out;
}

}  // namespace sciprep::compress
