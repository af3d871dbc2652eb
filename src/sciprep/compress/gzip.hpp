// gzip (RFC 1952) members over the system zlib.
//
// This is the exact baseline the paper's CosmoFlow comparison uses: TFRecord
// files compressed with GZIP, decompressed on the host CPU (there is no GPU
// gunzip — which is precisely the limitation the domain codecs remove).
// TensorFlow's GZIP option is zlib too.
#pragma once

#include "sciprep/common/buffer.hpp"

namespace sciprep::compress {

/// Compress `input` into one gzip member (header + DEFLATE + CRC-32 + ISIZE).
Bytes gzip_compress(ByteSpan input);

/// Decompress one gzip member that spans all of `input`; zlib checks the
/// header, CRC-32 and ISIZE. Throws FormatError on any violation.
Bytes gzip_decompress(ByteSpan input);

}  // namespace sciprep::compress
