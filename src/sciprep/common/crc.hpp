// CRC-32C (Castagnoli, for TFRecord and the wire frames), plus TFRecord's
// masked CRC transform. gzip's CRC-32 is zlib's.
#pragma once

#include <cstdint>

#include "sciprep/common/buffer.hpp"

namespace sciprep {

/// CRC-32C with polynomial 0x82F63B78 (reflected Castagnoli), as used by
/// TFRecord. `seed` is the running CRC for incremental computation (start
/// at 0). Uses SSE4.2's crc32 instruction where the host has it.
std::uint32_t crc32c(ByteSpan data, std::uint32_t seed = 0) noexcept;

/// CRC-32C by the portable slice-by-8 tables alone: crc32c's fallback, and
/// the reference its hardware path must equal.
std::uint32_t crc32c_sliced(ByteSpan data, std::uint32_t seed = 0) noexcept;

/// TFRecord masks CRCs so that a CRC stored alongside data cannot be mistaken
/// for a CRC of that data. See tensorflow/core/lib/hash/crc32c.h.
constexpr std::uint32_t mask_crc(std::uint32_t crc) noexcept {
  constexpr std::uint32_t kMaskDelta = 0xA282EAD8u;
  return ((crc >> 15) | (crc << 17)) + kMaskDelta;
}
constexpr std::uint32_t unmask_crc(std::uint32_t masked) noexcept {
  constexpr std::uint32_t kMaskDelta = 0xA282EAD8u;
  const std::uint32_t rot = masked - kMaskDelta;
  return (rot << 15) | (rot >> 17);
}

}  // namespace sciprep
