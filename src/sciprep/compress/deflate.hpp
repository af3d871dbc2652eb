// DEFLATE (RFC 1951) over the system zlib, at zlib's default level.
//
// Raw streams carry the DeepCAM codec's labels; gzip.hpp frames the same
// streams for the paper's TFRecord GZIP baseline.
#pragma once

#include <cstddef>

#include "sciprep/common/buffer.hpp"

namespace sciprep::compress {

/// Compress `input` into a raw DEFLATE stream.
Bytes deflate(ByteSpan input);

/// Decompress one raw DEFLATE stream that spans all of `input`. `size_hint`
/// sizes the first output allocation; no allocation exceeds DEFLATE's 1032:1
/// bound on `input.size()`. Throws FormatError on corruption, truncation or
/// trailing bytes.
Bytes inflate(ByteSpan input, std::size_t size_hint = 0);

}  // namespace sciprep::compress
