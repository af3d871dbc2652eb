// Exhaustive check of the FP16 span convert: every one of the 2^32 float bit
// patterns, NaNs included, must convert to the bits the scalar
// fp32_to_fp16_bits gives. Takes seconds, not milliseconds, so it is its own
// binary under the `stress` label.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "sciprep/common/fp16.hpp"

namespace sciprep {
namespace {

TEST(Fp16Stress, SpanConvertMatchesScalarOnAllFloats) {
  constexpr std::size_t kBlock = std::size_t{1} << 16;
  std::vector<std::uint32_t> patterns(kBlock);
  std::vector<float> src(kBlock);
  std::vector<Half> dst(kBlock);
  std::uint64_t mismatches = 0;
  for (std::uint64_t base = 0; base <= 0xFFFF'FFFFu; base += kBlock) {
    for (std::size_t i = 0; i < kBlock; ++i) {
      patterns[i] = static_cast<std::uint32_t>(base + i);
    }
    std::memcpy(src.data(), patterns.data(), kBlock * sizeof(float));
    fp32_to_fp16_n(src.data(), dst.data(), kBlock);
    for (std::size_t i = 0; i < kBlock; ++i) {
      if (dst[i].bits() != fp32_to_fp16_bits(src[i]) && mismatches++ < 8) {
        ADD_FAILURE() << std::hex << "f32 bits 0x" << patterns[i] << ": span 0x"
                      << dst[i].bits() << ", scalar 0x"
                      << fp32_to_fp16_bits(src[i]);
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

}  // namespace
}  // namespace sciprep
