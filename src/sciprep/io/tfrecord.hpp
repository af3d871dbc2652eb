// TFRecord container format (the on-disk format of the CosmoFlow dataset).
//
// Each record is framed as
//   uint64 length | uint32 masked_crc32c(length) | payload | uint32 masked_crc32c(payload)
// exactly as TensorFlow writes it. A reader validates both CRCs, so silent
// storage corruption surfaces as FormatError rather than garbage samples.
//
// GZIP-compressed TFRecord files (TFRecordOptions compression_type="GZIP")
// wrap the whole record stream in a single gzip member; helpers for that
// variant are provided because it is the paper's compression baseline.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sciprep/common/buffer.hpp"

namespace sciprep::io {

/// Appends framed records to an in-memory byte stream.
class TfRecordWriter {
 public:
  void append(ByteSpan payload);

  [[nodiscard]] std::size_t record_count() const noexcept { return count_; }
  [[nodiscard]] const Bytes& stream() const noexcept { return out_.bytes(); }
  Bytes take() && { return std::move(out_).take(); }

 private:
  ByteWriter out_;
  std::size_t count_ = 0;
};

/// Iterates framed records in a byte stream, validating CRCs.
class TfRecordReader {
 public:
  explicit TfRecordReader(ByteSpan stream) : in_(stream) {}

  /// Returns false at clean end-of-stream. Throws TruncatedError (naming the
  /// record's offset) when the stream ends inside a record's framing, and
  /// FormatError on CRC mismatches. A payload CRC failure is resumable: the
  /// reader position has already advanced past the bad record, so calling
  /// next() again yields the following record (skip-style recovery policies
  /// rely on this).
  bool next(Bytes& payload);

  /// Convenience: parse every record in `stream`.
  static std::vector<Bytes> read_all(ByteSpan stream);

 private:
  ByteReader in_;
};

/// Compress a TFRecord stream the way tf.io.TFRecordOptions(GZIP) does.
Bytes gzip_tfrecord_stream(ByteSpan stream);

/// Inverse of gzip_tfrecord_stream.
Bytes gunzip_tfrecord_stream(ByteSpan stream);

/// Write/read a byte stream to/from the host filesystem.
void write_file(const std::string& path, ByteSpan data);
Bytes read_file(const std::string& path);

}  // namespace sciprep::io
