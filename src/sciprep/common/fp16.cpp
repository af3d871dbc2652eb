#include "sciprep/common/fp16.hpp"

#include <bit>
#include <cstdint>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace sciprep {

namespace {
constexpr std::uint32_t kF32SignMask = 0x8000'0000u;
constexpr int kF32ExpBias = 127;
constexpr int kF16ExpBias = 15;

// Hardware span convert: F16C's VCVTPS2PH with the round-to-nearest-even
// immediate matches fp32_to_fp16_bits on every input, including NaNs (it
// keeps the top payload bits and sets the quiet bit, as the scalar path
// does). Detected once; the scalar loop is the fallback.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define SCIPREP_FP16_HW 1

__attribute__((target("f16c,avx"))) void fp32_to_fp16_n_f16c(
    const float* src, Half* dst, std::size_t n) noexcept {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i h =
        _mm256_cvtps_ph(_mm256_loadu_ps(src + i), _MM_FROUND_TO_NEAREST_INT);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i), h);
  }
  for (; i < n; ++i) {
    dst[i] = Half::from_bits(_cvtss_sh(src[i], _MM_FROUND_TO_NEAREST_INT));
  }
}

bool fp16_hw_available() noexcept {
  static const bool available =
      __builtin_cpu_supports("avx") && __builtin_cpu_supports("f16c");
  return available;
}
#endif

}  // namespace

std::uint16_t fp32_to_fp16_bits(float value) noexcept {
  const std::uint32_t f = std::bit_cast<std::uint32_t>(value);
  const std::uint16_t sign = static_cast<std::uint16_t>((f & kF32SignMask) >> 16);
  const std::uint32_t abs = f & 0x7FFF'FFFFu;

  // NaN / Inf.
  if (abs >= 0x7F80'0000u) {
    if (abs > 0x7F80'0000u) {
      // NaN: preserve top mantissa bits, force a quiet NaN payload bit so the
      // result stays a NaN even if the truncated payload would be zero.
      return static_cast<std::uint16_t>(sign | 0x7C00u | 0x0200u |
                                        ((abs >> 13) & 0x03FFu));
    }
    return static_cast<std::uint16_t>(sign | 0x7C00u);
  }

  // Overflow to infinity: anything >= 2^16 - 2^4 (half of max ulp above
  // kHalfMax) rounds to Inf. Threshold in f32 bits: exponent 142, mantissa
  // pattern for 65520.
  if (abs >= 0x4780'0000u) {  // 65536.0f
    return static_cast<std::uint16_t>(sign | 0x7C00u);
  }

  const int exp32 = static_cast<int>(abs >> 23);
  const int unbiased = exp32 - kF32ExpBias;

  if (unbiased >= -14) {
    // Normal half range (may still round up to Inf at the very top).
    std::uint32_t mant = abs & 0x007F'FFFFu;
    std::uint32_t half =
        (static_cast<std::uint32_t>(unbiased + kF16ExpBias) << 10) | (mant >> 13);
    // Round to nearest even on the 13 dropped bits.
    const std::uint32_t rem = mant & 0x1FFFu;
    if (rem > 0x1000u || (rem == 0x1000u && (half & 1u))) {
      ++half;  // carries propagate into the exponent correctly
    }
    return static_cast<std::uint16_t>(sign | half);
  }

  // Denormal half or underflow to zero.
  if (unbiased < -25) {
    return sign;  // underflows to signed zero even after rounding
  }
  // Build the significand with the implicit leading 1, then shift right so the
  // binary point matches a half denormal (exponent -14, no implicit bit).
  std::uint32_t sig = (abs & 0x007F'FFFFu) | 0x0080'0000u;
  const int shift = -14 - unbiased + 13;  // total right-shift to 10-bit field
  const std::uint32_t half = sig >> shift;
  const std::uint32_t rem = sig & ((1u << shift) - 1);
  const std::uint32_t halfway = 1u << (shift - 1);
  std::uint32_t rounded = half;
  if (rem > halfway || (rem == halfway && (half & 1u))) {
    ++rounded;  // may round up into the smallest normal, which is correct
  }
  return static_cast<std::uint16_t>(sign | rounded);
}

float fp16_bits_to_fp32(std::uint16_t bits) noexcept {
  const std::uint32_t sign = static_cast<std::uint32_t>(bits & 0x8000u) << 16;
  const std::uint32_t exp = (bits >> 10) & 0x1Fu;
  const std::uint32_t mant = bits & 0x03FFu;

  if (exp == 0x1Fu) {  // Inf / NaN
    return std::bit_cast<float>(sign | 0x7F80'0000u | (mant << 13));
  }
  if (exp == 0) {
    if (mant == 0) {
      return std::bit_cast<float>(sign);  // signed zero
    }
    // Denormal: normalize by shifting the mantissa until the leading 1 moves
    // into the implicit position.
    int e = -1;
    std::uint32_t m = mant;
    do {
      ++e;
      m <<= 1;
    } while ((m & 0x0400u) == 0);
    const std::uint32_t exp32 =
        static_cast<std::uint32_t>(kF32ExpBias - kF16ExpBias - e);
    return std::bit_cast<float>(sign | (exp32 << 23) | ((m & 0x03FFu) << 13));
  }
  const std::uint32_t exp32 = exp + (kF32ExpBias - kF16ExpBias);
  return std::bit_cast<float>(sign | (exp32 << 23) | (mant << 13));
}

void fp32_to_fp16_n(const float* src, Half* dst, std::size_t n) noexcept {
#ifdef SCIPREP_FP16_HW
  if (fp16_hw_available()) {
    fp32_to_fp16_n_f16c(src, dst, n);
    return;
  }
#endif
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] = Half::from_bits(fp32_to_fp16_bits(src[i]));
  }
}

}  // namespace sciprep
