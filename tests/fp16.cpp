// Unit and property tests for the software binary16 implementation.
#include "sciprep/common/fp16.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "sciprep/common/rng.hpp"

namespace sciprep {
namespace {

TEST(Fp16, ZeroRoundTrips) {
  EXPECT_EQ(fp32_to_fp16_bits(0.0F), 0x0000u);
  EXPECT_EQ(fp32_to_fp16_bits(-0.0F), 0x8000u);
  EXPECT_EQ(fp16_bits_to_fp32(0x0000u), 0.0F);
  EXPECT_EQ(fp16_bits_to_fp32(0x8000u), -0.0F);
  EXPECT_TRUE(std::signbit(fp16_bits_to_fp32(0x8000u)));
}

TEST(Fp16, KnownValues) {
  EXPECT_EQ(fp32_to_fp16_bits(1.0F), 0x3C00u);
  EXPECT_EQ(fp32_to_fp16_bits(-2.0F), 0xC000u);
  EXPECT_EQ(fp32_to_fp16_bits(65504.0F), 0x7BFFu);  // max half
  EXPECT_EQ(fp32_to_fp16_bits(0.5F), 0x3800u);
  EXPECT_EQ(fp16_bits_to_fp32(0x3C00u), 1.0F);
  EXPECT_EQ(fp16_bits_to_fp32(0x7BFFu), 65504.0F);
  // Smallest positive denormal: 2^-24.
  EXPECT_EQ(fp16_bits_to_fp32(0x0001u), 5.9604644775390625e-08F);
}

TEST(Fp16, InfinityAndOverflow) {
  EXPECT_EQ(fp32_to_fp16_bits(std::numeric_limits<float>::infinity()), 0x7C00u);
  EXPECT_EQ(fp32_to_fp16_bits(-std::numeric_limits<float>::infinity()),
            0xFC00u);
  EXPECT_EQ(fp32_to_fp16_bits(1.0e30F), 0x7C00u);  // overflow -> inf
  EXPECT_EQ(fp32_to_fp16_bits(65536.0F), 0x7C00u);
  // 65520 is exactly halfway between 65504 and 65536 -> rounds to even (inf).
  EXPECT_EQ(fp32_to_fp16_bits(65520.0F), 0x7C00u);
  // Just below halfway stays at max finite.
  EXPECT_EQ(fp32_to_fp16_bits(65519.996F), 0x7BFFu);
}

TEST(Fp16, NanPropagates) {
  const std::uint16_t bits =
      fp32_to_fp16_bits(std::numeric_limits<float>::quiet_NaN());
  EXPECT_TRUE(Half::from_bits(bits).is_nan());
  EXPECT_TRUE(std::isnan(fp16_bits_to_fp32(bits)));
}

TEST(Fp16, RoundToNearestEven) {
  // 1.0 + 2^-11 is exactly halfway between 1.0 and the next half value
  // 1.0009765625; ties-to-even keeps 1.0 (even significand).
  const float halfway = 1.0F + 0x1.0p-11F;
  EXPECT_EQ(fp32_to_fp16_bits(halfway), 0x3C00u);
  // Halfway between 1.0009765625 (odd significand) and 1.001953125 rounds up.
  const float halfway_odd = 1.0009765625F + 0x1.0p-11F;
  EXPECT_EQ(fp32_to_fp16_bits(halfway_odd), 0x3C02u);
}

TEST(Fp16, DenormalsRoundTrip) {
  for (std::uint16_t bits = 1; bits < 0x0400u; ++bits) {
    const float f = fp16_bits_to_fp32(bits);
    EXPECT_EQ(fp32_to_fp16_bits(f), bits) << "denormal bits " << bits;
  }
}

TEST(Fp16, UnderflowToZero) {
  EXPECT_EQ(fp32_to_fp16_bits(1.0e-10F), 0x0000u);
  EXPECT_EQ(fp32_to_fp16_bits(-1.0e-10F), 0x8000u);
  // Exactly half the smallest denormal rounds to even -> zero.
  EXPECT_EQ(fp32_to_fp16_bits(0x1.0p-25F), 0x0000u);
  // Just above half the smallest denormal rounds up to it.
  EXPECT_EQ(fp32_to_fp16_bits(0x1.000002p-25F), 0x0001u);
}

// Property: every half value round-trips exactly through float. This is the
// invariant the decoders rely on when emitting FP16 samples.
TEST(Fp16Property, AllFiniteHalvesRoundTrip) {
  for (std::uint32_t b = 0; b <= 0xFFFFu; ++b) {
    const auto bits = static_cast<std::uint16_t>(b);
    const Half h = Half::from_bits(bits);
    if (h.is_nan()) continue;
    EXPECT_EQ(fp32_to_fp16_bits(fp16_bits_to_fp32(bits)), bits)
        << "half bits " << bits;
  }
}

// Property: conversion error for random normal-range floats is bounded by the
// documented relative epsilon.
TEST(Fp16Property, RelativeErrorBounded) {
  Rng rng(2024);
  for (int i = 0; i < 100000; ++i) {
    const float x =
        static_cast<float>(rng.uniform(-60000.0, 60000.0));
    if (std::abs(x) < kHalfMinNormal) continue;
    const float back = fp16_bits_to_fp32(fp32_to_fp16_bits(x));
    EXPECT_LE(std::abs(back - x), std::abs(x) * kHalfRelativeEps)
        << "x=" << x;
  }
}

// Property: conversion agrees with the reference rounding computed through
// long-double arithmetic for a grid of values spanning denormals to overflow.
TEST(Fp16Property, MonotoneOverPositiveRange) {
  // fp16(x) must be monotone non-decreasing in x.
  Rng rng(7);
  float prev_x = 0.0F;
  std::uint16_t prev_bits = 0;
  for (int i = 0; i < 20000; ++i) {
    const float x = std::exp(static_cast<float>(rng.uniform(-18.0, 11.0)));
    const std::uint16_t bits = fp32_to_fp16_bits(x);
    if (x >= prev_x) {
      EXPECT_GE(bits, prev_bits) << "x=" << x << " prev=" << prev_x;
    } else {
      EXPECT_LE(bits, prev_bits) << "x=" << x << " prev=" << prev_x;
    }
    prev_x = x;
    prev_bits = bits;
  }
}

/// Run float bit patterns through the span convert in one call and require
/// every element to equal the scalar conversion.
void expect_span_matches_scalar(const std::vector<std::uint32_t>& patterns) {
  std::vector<float> src(patterns.size());
  std::memcpy(src.data(), patterns.data(), patterns.size() * sizeof(float));
  std::vector<Half> dst(src.size());
  fp32_to_fp16_n(src.data(), dst.data(), src.size());
  for (std::size_t i = 0; i < src.size(); ++i) {
    ASSERT_EQ(dst[i].bits(), fp32_to_fp16_bits(src[i]))
        << std::hex << "f32 bits 0x" << patterns[i];
  }
}

TEST(Fp16Span, StridedSweepMatchesScalar) {
  std::vector<std::uint32_t> patterns;
  for (std::uint64_t b = 0; b <= 0xFFFF'FFFFu; b += 65521) {  // prime stride
    patterns.push_back(static_cast<std::uint32_t>(b));
  }
  expect_span_matches_scalar(patterns);
}

TEST(Fp16Span, ClassBoundariesMatchScalar) {
  constexpr std::uint32_t kCenters[] = {
      0x0000'0000u,  // +0
      0x3380'0000u,  // 2^-24, smallest half denormal
      0x387F'C000u,  // largest half denormal
      0x3880'0000u,  // 2^-14, smallest half normal
      0x3300'0000u,  // 2^-25, the underflow-to-zero edge
      0x477F'E000u,  // 65504, largest half
      0x477F'EF00u,  // 65519
      0x477F'F000u,  // 65520, rounds to Inf
      0x7F80'0000u,  // Inf; above it the signalling NaNs
      0x7FC0'0000u,  // quiet NaN
      0x7FA0'2000u,  // signalling NaN with a payload that survives
      0x7FC1'2345u,  // quiet NaN with a payload
      0x7FFF'FFFFu,  // largest NaN
  };
  std::vector<std::uint32_t> patterns;
  for (const std::uint32_t center : kCenters) {
    for (const std::uint32_t sign : {0u, 0x8000'0000u}) {
      for (std::uint32_t d = 0; d <= 128; ++d) {
        patterns.push_back((center | sign) + d - 64);
      }
    }
  }
  expect_span_matches_scalar(patterns);
}

TEST(Fp16Span, TailLengthsAndUnalignedPointers) {
  // Every length through two 8-wide blocks plus a tail, at every element
  // offset inside a 32-byte line; the guard words around the output must
  // stay untouched.
  constexpr std::uint16_t kGuard = 0xA5A5u;
  for (std::size_t n = 0; n <= 17; ++n) {
    for (std::size_t src_off = 0; src_off < 8; ++src_off) {
      for (std::size_t dst_off = 0; dst_off < 8; ++dst_off) {
        std::vector<float> src(src_off + n);
        for (std::size_t i = 0; i < n; ++i) {
          src[src_off + i] = 1.0F / 3.0F * static_cast<float>(i) - 2.5F;
        }
        std::vector<Half> dst(dst_off + n + 1, Half::from_bits(kGuard));
        fp32_to_fp16_n(src.data() + src_off, dst.data() + dst_off, n);
        for (std::size_t i = 0; i < dst_off; ++i) {
          ASSERT_EQ(dst[i].bits(), kGuard);
        }
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(dst[dst_off + i].bits(),
                    fp32_to_fp16_bits(src[src_off + i]))
              << "n=" << n << " i=" << i;
        }
        ASSERT_EQ(dst[dst_off + n].bits(), kGuard) << "n=" << n;
      }
    }
  }
}

TEST(Half, ArithmeticThroughFloat) {
  const Half a(1.5F);
  const Half b(2.25F);
  EXPECT_EQ(static_cast<float>(a + b), 3.75F);
  EXPECT_EQ(static_cast<float>(a * b), 3.375F);
  EXPECT_EQ(static_cast<float>(b - a), 0.75F);
}

TEST(Half, Classification) {
  EXPECT_TRUE(Half::from_bits(0x7C01u).is_nan());
  EXPECT_TRUE(Half::from_bits(0x7C00u).is_inf());
  EXPECT_TRUE(Half::from_bits(0x0001u).is_denormal());
  EXPECT_TRUE(Half::from_bits(0x8000u).is_zero());
  EXPECT_TRUE(Half::from_bits(0x8000u).signbit());
  EXPECT_EQ(Half::from_bits(0x0000u), Half::from_bits(0x8000u));
}

}  // namespace
}  // namespace sciprep
