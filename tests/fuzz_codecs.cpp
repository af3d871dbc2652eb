// Fuzz-ish robustness tests: bit-flipped and truncated codec payloads fed
// through the CPU and SimGpu decode paths must surface as typed sciprep
// errors — never UB, crashes, or unbounded allocations. The suite is run
// under the asan-ubsan preset (ctest -L fault) to back the "no asan
// findings" half of that claim.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <optional>

#include "sciprep/codec/cam_codec.hpp"
#include "sciprep/codec/cosmo_codec.hpp"
#include "sciprep/common/error.hpp"
#include "sciprep/common/rng.hpp"
#include "sciprep/data/cam_gen.hpp"
#include "sciprep/data/cosmo_gen.hpp"
#include "sciprep/sim/simgpu.hpp"

namespace sciprep::codec {
namespace {

// Enough trials to reach rare structural flips too: on the DeepCAM sample,
// trials 138, 264 and 329 turn a delta line's mode byte into "constant".
constexpr int kFlipTrials = 1000;

Bytes encoded_cosmo() {
  data::CosmoGenConfig cfg;
  cfg.dim = 8;
  cfg.seed = 31;
  const data::CosmoGenerator gen(cfg);
  return CosmoCodec().encode_sample(gen.generate(0));
}

Bytes encoded_cam() {
  data::CamGenConfig cfg;
  cfg.height = 16;
  cfg.width = 24;
  cfg.channels = 2;
  cfg.seed = 32;
  const data::CamGenerator gen(cfg);
  return CamCodec().encode_sample(gen.generate(0));
}

/// Flip 1–4 random bits of `clean` (deterministic per trial).
Bytes flipped(const Bytes& clean, int trial) {
  Rng rng(static_cast<std::uint64_t>(trial) * 0x9E3779B9u + 1);
  Bytes bad = clean;
  const int flips = 1 + static_cast<int>(rng.next_below(4));
  for (int f = 0; f < flips; ++f) {
    const std::size_t at = static_cast<std::size_t>(rng.next_below(bad.size()));
    bad[at] ^= static_cast<std::uint8_t>(1u << rng.next_below(8));
  }
  return bad;
}

/// One decode's result: the class of the typed error it threw, or its
/// tensor. Anything else — a foreign exception, a crash, an asan report —
/// escapes and fails the test run.
struct Outcome {
  std::optional<ErrorClass> error;
  TensorF16 out;
};

template <class Decode>
Outcome run(Decode&& decode) {
  try {
    return {std::nullopt, decode()};
  } catch (const Error& e) {
    return {classify(e), {}};
  }
}

bool same_bits(const TensorF16& a, const TensorF16& b) {
  return a.shape == b.shape && a.float_labels == b.float_labels &&
         a.byte_labels == b.byte_labels &&
         std::equal(a.values.begin(), a.values.end(), b.values.begin(),
                    b.values.end(), [](Half x, Half y) {
                      return x.bits() == y.bits();
                    });
}

/// Decode must either succeed (the flip hit a don't-care bit or produced a
/// self-consistent stream) or throw a typed sciprep::Error that FaultPolicy
/// can skip (never kFatal), and the CPU and SimGpu schedules must agree:
/// both reject with the same ErrorClass, or both return the same bits.
template <class Codec>
void expect_contained(const Codec& codec, sim::SimGpu& gpu,
                      const Bytes& payload, int trial) {
  const Outcome cpu = run([&] { return codec.decode_cpu(payload); });
  const Outcome dev = run([&] { return codec.decode_gpu(payload, gpu); });
  ASSERT_EQ(cpu.error, dev.error) << "trial " << trial;
  ASSERT_NE(cpu.error, ErrorClass::kFatal) << "trial " << trial;
  if (cpu.error) return;
  // On success the decode honored some header: the output must be sized
  // self-consistently, not garbage-length.
  EXPECT_FALSE(cpu.out.values.empty()) << "trial " << trial;
  EXPECT_TRUE(same_bits(cpu.out, dev.out)) << "trial " << trial;
}

TEST(FuzzCosmo, BitFlipsAreContainedOnCpuAndGpu) {
  const Bytes clean = encoded_cosmo();
  const CosmoCodec codec;
  sim::SimGpu gpu({.sm_count = 2, .warps_per_sm = 2});
  for (int trial = 0; trial < kFlipTrials; ++trial) {
    expect_contained(codec, gpu, flipped(clean, trial), trial);
  }
}

TEST(FuzzCosmo, EveryStrictPrefixIsRejected) {
  const Bytes clean = encoded_cosmo();
  const CosmoCodec codec;
  sim::SimGpu gpu({.sm_count = 2, .warps_per_sm = 2});
  for (std::size_t len = 0; len < clean.size();
       len += 1 + len / 16) {  // denser near the header, sparser in the body
    const Bytes cut(clean.begin(),
                    clean.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_THROW((void)codec.decode_cpu(ByteSpan(cut)), Error)
        << "prefix length " << len;
    EXPECT_THROW((void)codec.decode_gpu(ByteSpan(cut), gpu), Error)
        << "prefix length " << len;
  }
}

TEST(FuzzCam, BitFlipsAreContainedOnCpuAndGpu) {
  const Bytes clean = encoded_cam();
  const CamCodec codec;
  sim::SimGpu gpu({.sm_count = 2, .warps_per_sm = 2});
  for (int trial = 0; trial < kFlipTrials; ++trial) {
    expect_contained(codec, gpu, flipped(clean, trial), trial);
  }
}

TEST(FuzzCam, EverySingleBitFlipIsContained) {
  // All 8 x 1429 single-bit flips: the delta lines decode in the CPU's
  // lane groups and the SimGpu's per-line kernel, so every corrupted code,
  // segment header and exponent must give both the same bits or the same
  // error; a flip the label inflate trips on must be corrupt, not fatal.
  const Bytes clean = encoded_cam();
  const CamCodec codec;
  sim::SimGpu gpu({.sm_count = 2, .warps_per_sm = 2});
  for (std::size_t bit = 0; bit < clean.size() * 8; ++bit) {
    Bytes bad = clean;
    bad[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    expect_contained(codec, gpu, bad, static_cast<int>(bit));
  }
}

TEST(FuzzCam, EveryStrictPrefixIsRejected) {
  const Bytes clean = encoded_cam();
  const CamCodec codec;
  sim::SimGpu gpu({.sm_count = 2, .warps_per_sm = 2});
  for (std::size_t len = 0; len < clean.size(); len += 1 + len / 16) {
    const Bytes cut(clean.begin(),
                    clean.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_THROW((void)codec.decode_cpu(ByteSpan(cut)), Error)
        << "prefix length " << len;
    EXPECT_THROW((void)codec.decode_gpu(ByteSpan(cut), gpu), Error)
        << "prefix length " << len;
  }
}

}  // namespace
}  // namespace sciprep::codec
