// LSB-first bit streams, as used by DEFLATE and by the DeepCAM differential
// codec's packed delta fields.
//
// Bits are packed into bytes starting at the least significant bit; multi-bit
// values are written least-significant-bit first (DEFLATE convention). Huffman
// codes, which DEFLATE stores most-significant-bit first, are bit-reversed by
// the caller before writing.
#pragma once

#include <cstdint>

#include "sciprep/common/buffer.hpp"
#include "sciprep/common/error.hpp"

namespace sciprep {

/// Writes bit fields LSB-first into a byte vector.
class BitWriter {
 public:
  /// Append `count` bits (<= 32) of `value`, LSB first.
  void put_bits(std::uint32_t value, int count) {
    SCIPREP_ASSERT(count >= 0 && count <= 32);
    acc_ |= static_cast<std::uint64_t>(value & mask(count)) << nbits_;
    nbits_ += count;
    while (nbits_ >= 8) {
      out_.push_back(static_cast<std::uint8_t>(acc_ & 0xFFu));
      acc_ >>= 8;
      nbits_ -= 8;
    }
  }

  /// Pad with zero bits to the next byte boundary.
  void align_to_byte() {
    if (nbits_ > 0) {
      out_.push_back(static_cast<std::uint8_t>(acc_ & 0xFFu));
      acc_ = 0;
      nbits_ = 0;
    }
  }

  /// Append whole bytes; requires byte alignment.
  void put_bytes(ByteSpan bytes) {
    SCIPREP_ASSERT(nbits_ == 0);
    out_.insert(out_.end(), bytes.begin(), bytes.end());
  }

  /// Number of bits written so far (including buffered partial byte).
  [[nodiscard]] std::size_t bit_count() const noexcept {
    return out_.size() * 8 + static_cast<std::size_t>(nbits_);
  }

  Bytes finish() && {
    align_to_byte();
    return std::move(out_);
  }

 private:
  static constexpr std::uint32_t mask(int count) {
    return count == 32 ? 0xFFFF'FFFFu : (1u << count) - 1u;
  }

  Bytes out_;
  std::uint64_t acc_ = 0;
  int nbits_ = 0;
};

/// Reads bit fields LSB-first from a byte span. Throws FormatError past end.
class BitReader {
 public:
  explicit BitReader(ByteSpan data) : data_(data) {}

  std::uint32_t get_bits(int count) {
    SCIPREP_ASSERT(count >= 0 && count <= 32);
    fill(count);
    if (nbits_ < count) {
      throw_format("bitstream truncated: need {} bits, have {}", count, nbits_);
    }
    const auto v = static_cast<std::uint32_t>(acc_ & maskbits(count));
    acc_ >>= count;
    nbits_ -= count;
    return v;
  }

  /// Read a single bit.
  std::uint32_t get_bit() { return get_bits(1); }

  /// Peek up to `count` bits without consuming; missing bits read as zero
  /// (DEFLATE decoders rely on this at stream end).
  std::uint32_t peek_bits(int count) {
    fill(count);
    return static_cast<std::uint32_t>(acc_ & maskbits(count));
  }

  /// Consume `count` bits previously peeked. Peeked bits past the end read
  /// as zero, so a code that needs them means the stream is truncated.
  void drop_bits(int count) {
    if (count > nbits_) {
      throw_format("bitstream truncated: drop {} bits, have {}", count, nbits_);
    }
    acc_ >>= count;
    nbits_ -= count;
  }

  /// Discard buffered bits up to the next byte boundary.
  void align_to_byte() {
    const int drop = nbits_ % 8;
    acc_ >>= drop;
    nbits_ -= drop;
  }

  /// Copy whole bytes; requires byte alignment.
  ByteSpan get_bytes(std::size_t n) {
    SCIPREP_ASSERT(nbits_ % 8 == 0);
    // Return buffered bytes to the cursor before slicing.
    pos_ -= static_cast<std::size_t>(nbits_ / 8);
    acc_ = 0;
    nbits_ = 0;
    if (pos_ + n > data_.size()) {
      throw_format("bitstream truncated: need {} bytes, have {}", n,
                   data_.size() - pos_);
    }
    ByteSpan s = data_.subspan(pos_, n);
    pos_ += n;
    return s;
  }

  [[nodiscard]] bool exhausted() const noexcept {
    return pos_ == data_.size() && nbits_ == 0;
  }

 private:
  static constexpr std::uint64_t maskbits(int count) {
    return count >= 64 ? ~0ULL : (1ULL << count) - 1ULL;
  }

  void fill(int need) {
    while (nbits_ < need && pos_ < data_.size()) {
      acc_ |= static_cast<std::uint64_t>(data_[pos_++]) << nbits_;
      nbits_ += 8;
    }
  }

  ByteSpan data_;
  std::size_t pos_ = 0;
  std::uint64_t acc_ = 0;
  int nbits_ = 0;
};

}  // namespace sciprep
