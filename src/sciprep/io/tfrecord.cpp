#include "sciprep/io/tfrecord.hpp"

#include "sciprep/common/crc.hpp"
#include "sciprep/common/error.hpp"
#include "sciprep/common/sysio.hpp"
#include "sciprep/compress/gzip.hpp"
#include "sciprep/guard/cancel.hpp"

namespace sciprep::io {

namespace {

std::uint32_t crc_of_length(std::uint64_t length) {
  ByteWriter w;
  w.put<std::uint64_t>(length);
  return mask_crc(crc32c(w.bytes()));
}

}  // namespace

void TfRecordWriter::append(ByteSpan payload) {
  const auto length = static_cast<std::uint64_t>(payload.size());
  out_.put<std::uint64_t>(length);
  out_.put<std::uint32_t>(crc_of_length(length));
  out_.put_bytes(payload);
  out_.put<std::uint32_t>(mask_crc(crc32c(payload)));
  ++count_;
}

bool TfRecordReader::next(Bytes& payload) {
  if (in_.done()) return false;
  const std::size_t record_start = in_.position();
  if (in_.remaining() < 12) {
    throw TruncatedError(
        fmt("tfrecord: stream ends inside the record header at offset {} "
            "({} of 12 header bytes present)",
            record_start, in_.remaining()),
        record_start);
  }
  const auto length = in_.get<std::uint64_t>();
  const auto length_crc = in_.get<std::uint32_t>();
  if (length_crc != crc_of_length(length)) {
    throw_format("tfrecord: length CRC mismatch at offset {}", record_start);
  }
  if (length > in_.remaining() || in_.remaining() - length < 4) {
    throw TruncatedError(
        fmt("tfrecord: record at offset {} declares {} payload bytes but "
            "only {} bytes remain (including the 4-byte payload CRC)",
            record_start, length, in_.remaining()),
        record_start);
  }
  // Past this point the reader position advances over the whole record
  // before any CRC verdict, so a payload CRC failure leaves the stream
  // positioned at the next record and the caller can resync by calling
  // next() again.
  const ByteSpan body = in_.get_bytes(static_cast<std::size_t>(length));
  const auto body_crc = in_.get<std::uint32_t>();
  if (body_crc != mask_crc(crc32c(body))) {
    throw_format(
        "tfrecord: payload CRC mismatch for {}-byte record at offset {}",
        length, record_start);
  }
  payload.assign(body.begin(), body.end());
  return true;
}

std::vector<Bytes> TfRecordReader::read_all(ByteSpan stream) {
  TfRecordReader reader(stream);
  std::vector<Bytes> records;
  Bytes payload;
  while (reader.next(payload)) {
    guard::poll_cancellation();  // cancellation point per record
    records.push_back(std::move(payload));
    payload.clear();
  }
  return records;
}

Bytes gzip_tfrecord_stream(ByteSpan stream) {
  return compress::gzip_compress(stream);
}

Bytes gunzip_tfrecord_stream(ByteSpan stream) {
  return compress::gzip_decompress(stream);
}

// Dataset/checkpoint file movement rides the shared EINTR/partial-op-safe
// loops in sysio; these wrappers only keep the historical io:: spelling.
void write_file(const std::string& path, ByteSpan data) {
  sysio::write_file(path, data);
}

Bytes read_file(const std::string& path) { return sysio::read_file(path); }

}  // namespace sciprep::io
