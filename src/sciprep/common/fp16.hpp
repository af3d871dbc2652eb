// IEEE 754 binary16 ("half") support.
//
// The paper's decoders emit half-precision samples to feed mixed-precision
// training. The scalar conversions are portable integer arithmetic with
// round-to-nearest-even, full denormal support, and Inf/NaN propagation
// (NaNs keep their top payload bits and come out quiet). They define the
// conversion every other path must reproduce bit for bit.
//
// Decoders emit whole lines and tables through the span convert
// fp32_to_fp16_n. It picks its implementation once at runtime: on x86-64
// CPUs with F16C it converts eight values per instruction (VCVTPS2PH,
// round-to-nearest-even immediate), otherwise it loops over the scalar
// conversion. The two give identical bits for every one of the 2^32 float
// inputs, NaN payloads included, so decoded output does not depend on the
// host.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>

namespace sciprep {

/// Convert an IEEE binary32 value to binary16 bits (round-to-nearest-even).
std::uint16_t fp32_to_fp16_bits(float value) noexcept;

/// Convert binary16 bits to the exactly-representable binary32 value.
float fp16_bits_to_fp32(std::uint16_t bits) noexcept;

/// Value type wrapping binary16 bits. Arithmetic is performed by converting
/// through float, mirroring how GPU mixed-precision pipelines upconvert for
/// accumulation.
class Half {
 public:
  constexpr Half() noexcept = default;
  explicit Half(float value) noexcept : bits_(fp32_to_fp16_bits(value)) {}

  static constexpr Half from_bits(std::uint16_t bits) noexcept {
    Half h;
    h.bits_ = bits;
    return h;
  }

  [[nodiscard]] constexpr std::uint16_t bits() const noexcept { return bits_; }
  [[nodiscard]] float to_float() const noexcept {
    return fp16_bits_to_fp32(bits_);
  }
  explicit operator float() const noexcept { return to_float(); }

  [[nodiscard]] constexpr bool is_nan() const noexcept {
    return (bits_ & 0x7C00u) == 0x7C00u && (bits_ & 0x03FFu) != 0;
  }
  [[nodiscard]] constexpr bool is_inf() const noexcept {
    return (bits_ & 0x7FFFu) == 0x7C00u;
  }
  [[nodiscard]] constexpr bool is_denormal() const noexcept {
    return (bits_ & 0x7C00u) == 0 && (bits_ & 0x03FFu) != 0;
  }
  [[nodiscard]] constexpr bool is_zero() const noexcept {
    return (bits_ & 0x7FFFu) == 0;
  }
  [[nodiscard]] constexpr bool signbit() const noexcept {
    return (bits_ & 0x8000u) != 0;
  }

  friend bool operator==(Half a, Half b) noexcept {
    if (a.is_nan() || b.is_nan()) return false;
    if (a.is_zero() && b.is_zero()) return true;  // +0 == -0
    return a.bits_ == b.bits_;
  }
  friend Half operator+(Half a, Half b) noexcept {
    return Half(a.to_float() + b.to_float());
  }
  friend Half operator-(Half a, Half b) noexcept {
    return Half(a.to_float() - b.to_float());
  }
  friend Half operator*(Half a, Half b) noexcept {
    return Half(a.to_float() * b.to_float());
  }

 private:
  std::uint16_t bits_ = 0;
};

static_assert(sizeof(Half) == 2);

/// Convert `n` binary32 values to binary16: `dst[i]` gets exactly the bits
/// of fp32_to_fp16_bits(src[i]). Uses F16C when the CPU has it.
void fp32_to_fp16_n(const float* src, Half* dst, std::size_t n) noexcept;

/// Largest finite half value (65504).
inline constexpr float kHalfMax = 65504.0F;
/// Smallest positive normal half (2^-14).
inline constexpr float kHalfMinNormal = 6.103515625e-05F;
/// Smallest positive denormal half (2^-24).
inline constexpr float kHalfMinDenormal = 5.9604644775390625e-08F;

/// Relative error bound introduced by rounding a normal-range float to half:
/// half the ulp at 11 bits of significand.
inline constexpr float kHalfRelativeEps = 4.8828125e-04F;  // 2^-11

}  // namespace sciprep
