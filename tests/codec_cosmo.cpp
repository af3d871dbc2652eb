// Tests for the CosmoFlow lookup-table codec: exact round trip (FP16 cast is
// the only precision change), compression ratio, RLE/broadcast handling,
// multi-table splitting, GPU/CPU decode equivalence, corruption rejection,
// golden decode digests.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "sciprep/codec/cosmo_codec.hpp"
#include "sciprep/common/crc.hpp"
#include "sciprep/common/error.hpp"
#include "sciprep/common/rng.hpp"
#include "sciprep/data/cosmo_gen.hpp"

namespace sciprep::codec {
namespace {

io::CosmoSample synthetic_sample(int dim = 32, std::uint64_t index = 0) {
  data::CosmoGenConfig cfg;
  cfg.dim = dim;
  cfg.seed = 77;
  return data::CosmoGenerator(cfg).generate(index);
}

/// The decode contract: value v becomes fp16(log1p(v)).
Half expected_value(std::int32_t count, bool log1p = true) {
  const auto x = static_cast<float>(count);
  return Half(log1p ? std::log1p(x) : x);
}

TEST(CosmoCodec, RoundTripIsExactUpToFp16) {
  const auto sample = synthetic_sample();
  const CosmoCodec codec;
  const Bytes encoded = codec.encode_sample(sample);
  const TensorF16 decoded = codec.decode_cpu(encoded);

  ASSERT_EQ(decoded.values.size(), sample.counts.size());
  ASSERT_EQ(decoded.shape,
            (std::vector<std::uint64_t>{32, 32, 32, 4}));
  for (std::size_t i = 0; i < sample.counts.size(); ++i) {
    ASSERT_EQ(decoded.values[i].bits(), expected_value(sample.counts[i]).bits())
        << "value " << i << " count " << sample.counts[i];
  }
}

TEST(CosmoCodec, LabelsAreLossless) {
  const auto sample = synthetic_sample(32, 3);
  const CosmoCodec codec;
  const TensorF16 decoded = codec.decode_cpu(codec.encode_sample(sample));
  ASSERT_EQ(decoded.float_labels.size(), 4u);
  for (int p = 0; p < 4; ++p) {
    EXPECT_EQ(decoded.float_labels[static_cast<std::size_t>(p)],
              sample.params[static_cast<std::size_t>(p)]);
  }
}

TEST(CosmoCodec, MatchesReferencePreprocessExactly) {
  // The paper: "Our CosmoFlow decoder is not lossy when casting to FP16" —
  // decode(encode(x)) must equal the baseline preprocess bit-for-bit.
  const auto sample = synthetic_sample(16, 5);
  const CosmoCodec codec;
  const TensorF16 decoded = codec.decode_cpu(codec.encode_sample(sample));
  const TensorF16 reference = CosmoCodec::reference_preprocess_sample(sample);
  ASSERT_EQ(decoded.values.size(), reference.values.size());
  for (std::size_t i = 0; i < decoded.values.size(); ++i) {
    ASSERT_EQ(decoded.values[i].bits(), reference.values[i].bits());
  }
}

TEST(CosmoCodec, GpuDecodeMatchesCpu) {
  const auto sample = synthetic_sample(32, 1);
  const CosmoCodec codec;
  const Bytes encoded = codec.encode_sample(sample);
  const TensorF16 cpu = codec.decode_cpu(encoded);
  sim::SimGpu gpu({.sm_count = 8, .warps_per_sm = 4});
  const TensorF16 dev = codec.decode_gpu(encoded, gpu);
  ASSERT_EQ(cpu.values.size(), dev.values.size());
  for (std::size_t i = 0; i < cpu.values.size(); ++i) {
    ASSERT_EQ(cpu.values[i].bits(), dev.values[i].bits()) << "value " << i;
  }
  EXPECT_EQ(cpu.float_labels, dev.float_labels);
  // The gather kernel must have moved the full volume through the engine.
  EXPECT_GT(gpu.lifetime_stats().bytes_written,
            sample.value_count() * sizeof(Half) / 2);
}

TEST(CosmoCodec, CompressesClusteredVolumes) {
  const auto sample = synthetic_sample(32, 2);
  const CosmoCodec codec;
  const Bytes encoded = codec.encode_sample(sample);
  // vs the uint16 on-disk baseline (§V.B: ~4x with tables vs ~5x gzip).
  const double ratio = static_cast<double>(sample.byte_size()) /
                       static_cast<double>(encoded.size());
  EXPECT_GT(ratio, 2.0) << "encoded " << encoded.size() << " of "
                        << sample.byte_size();
}

TEST(CosmoCodec, InspectReportsStructure) {
  const auto sample = synthetic_sample(32, 4);
  const CosmoCodec codec;
  const Bytes encoded = codec.encode_sample(sample);
  const CosmoEncodedInfo info = CosmoCodec::inspect(encoded);
  EXPECT_GE(info.block_count, 1u);
  EXPECT_GT(info.total_groups, 100u);
  EXPECT_GT(info.key_bytes, 0u);
  EXPECT_EQ(info.table_bytes, info.total_groups * 4 * sizeof(std::int32_t));
}

TEST(CosmoCodec, UniformVolumeUsesBroadcastStream) {
  // An all-equal volume must RLE down to almost nothing.
  io::CosmoSample sample;
  sample.dim = 16;
  sample.counts.assign(sample.value_count(), 3);
  sample.params = {1, 2, 3, 4};
  const CosmoCodec codec;
  const Bytes encoded = codec.encode_sample(sample);
  EXPECT_LT(encoded.size(), 256u);
  const TensorF16 decoded = codec.decode_cpu(encoded);
  for (const Half h : decoded.values) {
    ASSERT_EQ(h.bits(), expected_value(3).bits());
  }
  // GPU broadcast path decodes it identically.
  sim::SimGpu gpu({.sm_count = 4, .warps_per_sm = 2});
  const TensorF16 dev = codec.decode_gpu(encoded, gpu);
  for (const Half h : dev.values) {
    ASSERT_EQ(h.bits(), expected_value(3).bits());
  }
}

TEST(CosmoCodec, RleDisabledStillRoundTrips) {
  io::CosmoSample sample;
  sample.dim = 8;
  sample.counts.assign(sample.value_count(), 7);
  CosmoEncodeOptions opt;
  opt.rle = false;
  const CosmoCodec codec(opt);
  const TensorF16 decoded = codec.decode_cpu(codec.encode_sample(sample));
  for (const Half h : decoded.values) {
    ASSERT_EQ(h.bits(), expected_value(7).bits());
  }
}

TEST(CosmoCodec, OneByteKeysForTinyTables) {
  io::CosmoSample sample;
  sample.dim = 16;
  sample.counts.resize(sample.value_count());
  Rng rng(5);
  for (std::size_t v = 0; v < sample.voxel_count(); ++v) {
    // Only 10 distinct groups.
    const auto g = static_cast<std::int32_t>(rng.next_below(10));
    for (int r = 0; r < 4; ++r) {
      sample.counts[v * 4 + static_cast<std::size_t>(r)] = g;
    }
  }
  const CosmoCodec codec;
  const Bytes encoded = codec.encode_sample(sample);
  const CosmoEncodedInfo info = CosmoCodec::inspect(encoded);
  EXPECT_EQ(info.total_groups, 10u);
  // 1-byte keys: stream must be ~1 byte/voxel (RLE may shrink it further).
  EXPECT_LE(info.key_bytes, sample.voxel_count() + 16);
  const TensorF16 decoded = codec.decode_cpu(encoded);
  for (std::size_t v = 0; v < sample.voxel_count(); ++v) {
    ASSERT_EQ(decoded.values[v * 4].bits(),
              expected_value(sample.counts[v * 4]).bits());
  }
}

TEST(CosmoCodec, SplitsIntoMultipleTablesWhenGroupsOverflow) {
  // Force > max_groups unique groups with a tiny cap.
  io::CosmoSample sample;
  sample.dim = 16;  // 4096 voxels
  sample.counts.resize(sample.value_count());
  for (std::size_t v = 0; v < sample.voxel_count(); ++v) {
    for (int r = 0; r < 4; ++r) {
      sample.counts[v * 4 + static_cast<std::size_t>(r)] =
          static_cast<std::int32_t>(v % 1024 + static_cast<std::size_t>(r));
    }
  }
  CosmoEncodeOptions opt;
  opt.max_groups_per_block = 256;
  const CosmoCodec codec(opt);
  const Bytes encoded = codec.encode_sample(sample);
  const CosmoEncodedInfo info = CosmoCodec::inspect(encoded);
  EXPECT_GE(info.block_count, 4u);  // 1024 groups / 256 per block
  const TensorF16 decoded = codec.decode_cpu(encoded);
  for (std::size_t i = 0; i < sample.counts.size(); ++i) {
    ASSERT_EQ(decoded.values[i].bits(), expected_value(sample.counts[i]).bits());
  }
  // GPU path handles multi-block too.
  sim::SimGpu gpu({.sm_count = 4, .warps_per_sm = 2});
  const TensorF16 dev = codec.decode_gpu(encoded, gpu);
  for (std::size_t i = 0; i < sample.counts.size(); ++i) {
    ASSERT_EQ(dev.values[i].bits(), expected_value(sample.counts[i]).bits());
  }
}

TEST(CosmoCodec, WithoutLog1pEmitsRawCounts) {
  io::CosmoSample sample;
  sample.dim = 8;
  sample.counts.resize(sample.value_count());
  for (std::size_t i = 0; i < sample.counts.size(); ++i) {
    sample.counts[i] = static_cast<std::int32_t>(i % 50);
  }
  CosmoEncodeOptions opt;
  opt.fuse_log1p = false;
  const CosmoCodec codec(opt);
  const TensorF16 decoded = codec.decode_cpu(codec.encode_sample(sample));
  for (std::size_t i = 0; i < sample.counts.size(); ++i) {
    ASSERT_EQ(decoded.values[i].bits(),
              expected_value(sample.counts[i], false).bits());
  }
}

TEST(CosmoCodec, NegativeCountsRejectedWithLog1p) {
  io::CosmoSample sample;
  sample.dim = 8;
  sample.counts.assign(sample.value_count(), 0);
  sample.counts[17] = -1;
  const CosmoCodec codec;
  EXPECT_THROW(codec.encode_sample(sample), ConfigError);
}

TEST(CosmoCodec, RejectsCorruptHeader) {
  const auto sample = synthetic_sample(16, 6);
  const CosmoCodec codec;
  Bytes encoded = codec.encode_sample(sample);
  encoded[0] ^= 0xFF;  // magic
  EXPECT_THROW(codec.decode_cpu(encoded), FormatError);
}

TEST(CosmoCodec, RejectsTruncation) {
  const auto sample = synthetic_sample(16, 6);
  const CosmoCodec codec;
  const Bytes encoded = codec.encode_sample(sample);
  const ByteSpan cut = ByteSpan(encoded).first(encoded.size() / 2);
  EXPECT_THROW(codec.decode_cpu(cut), FormatError);
}

TEST(CosmoCodec, RejectsOutOfRangeKeys) {
  io::CosmoSample sample;
  sample.dim = 8;
  sample.counts.assign(sample.value_count(), 1);
  sample.counts[0] = 2;  // 2 groups -> keys {0,1}, 1-byte keys, raw or rle
  sim::SimGpu gpu({.sm_count = 2, .warps_per_sm = 2});
  for (const bool rle : {false, true}) {
    SCOPED_TRACE(::testing::Message() << "rle=" << rle);
    const CosmoCodec codec({.rle = rle});
    Bytes encoded = codec.encode_sample(sample);
    ASSERT_EQ(CosmoCodec::inspect(encoded).rle_blocks, rle ? 1u : 0u);
    // A raw stream is the trailing voxel-count bytes; an RLE stream ends
    // with the last run's key. Either way, set one key to 0xEE (>= 2).
    encoded[encoded.size() - (rle ? 1 : 5)] = 0xEE;
    EXPECT_THROW((void)codec.decode_cpu(encoded), FormatError);
    EXPECT_THROW((void)codec.decode_gpu(encoded, gpu), FormatError);
    EXPECT_THROW((void)CosmoCodec::inspect(encoded), FormatError);
  }
}

TEST(CosmoCodec, BadOptionsRejected) {
  CosmoEncodeOptions opt;
  opt.max_groups_per_block = 0;
  EXPECT_THROW(CosmoCodec{opt}, ConfigError);
}

TEST(CosmoCodec, PluginInterfaceRoundTrips) {
  const auto sample = synthetic_sample(16, 7);
  const CosmoCodec codec;
  const SampleCodec& plugin = codec;
  EXPECT_EQ(plugin.name(), "cosmo-lut");
  const Bytes raw = sample.serialize();
  const Bytes encoded = plugin.encode(raw);
  EXPECT_LT(encoded.size(), raw.size());
  const TensorF16 via_plugin = plugin.decode_cpu(encoded);
  const TensorF16 reference = plugin.reference_preprocess(raw);
  ASSERT_EQ(via_plugin.values.size(), reference.values.size());
  for (std::size_t i = 0; i < via_plugin.values.size(); ++i) {
    ASSERT_EQ(via_plugin.values[i].bits(), reference.values[i].bits());
  }
}

/// CRC32C of a tensor's FP16 bits, for pinning decode output.
std::uint32_t fp16_digest(const TensorF16& t) {
  return crc32c(ByteSpan(reinterpret_cast<const std::uint8_t*>(t.values.data()),
                         t.values.size() * sizeof(Half)));
}

// Golden decode digests, recorded from the scalar per-value FP16 emit. The
// decode is lossless up to the cast, so the CPU decode, the GPU decode and
// the baseline preprocess all share one digest per log1p setting.
TEST(CosmoCodec, GoldenDecodeDigests) {
  constexpr struct {
    bool log1p;
    std::uint32_t digest;
  } kGolden[] = {{true, 0xb3613f15u}, {false, 0xd64fdd0cu}};
  const auto sample = synthetic_sample(32, 9);
  for (const auto& g : kGolden) {
    SCOPED_TRACE(::testing::Message() << "log1p=" << g.log1p);
    const CosmoCodec codec({.fuse_log1p = g.log1p});
    const Bytes encoded = codec.encode_sample(sample);
    EXPECT_EQ(fp16_digest(codec.decode_cpu(encoded)), g.digest);
    sim::SimGpu gpu({.sm_count = 4, .warps_per_sm = 2});
    EXPECT_EQ(fp16_digest(codec.decode_gpu(encoded, gpu)), g.digest);
    EXPECT_EQ(fp16_digest(CosmoCodec::reference_preprocess_sample(sample, g.log1p)),
              g.digest);
    // SimGpu accounting, recorded with the digests: the sim-charged figures
    // (Figs 10-12) read these counters.
    const sim::KernelStats& stats = gpu.lifetime_stats();
    EXPECT_EQ(stats.warps, 1599u);
    EXPECT_EQ(stats.lockstep_ops, 1599u);
    EXPECT_EQ(stats.divergent_branches, 0u);
    EXPECT_EQ(stats.bytes_read, 401280u);
    EXPECT_EQ(stats.bytes_written, 298944u);
  }
}

// Property sweep: round trip holds across dims and universes.
class CosmoRoundTrip
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(CosmoRoundTrip, ExactAcrossDimsAndIndices) {
  const int dim = std::get<0>(GetParam());
  const std::uint64_t index = std::get<1>(GetParam());
  const auto sample = synthetic_sample(dim, index);
  const CosmoCodec codec;
  const TensorF16 decoded = codec.decode_cpu(codec.encode_sample(sample));
  for (std::size_t i = 0; i < sample.counts.size(); ++i) {
    ASSERT_EQ(decoded.values[i].bits(), expected_value(sample.counts[i]).bits());
  }
}

INSTANTIATE_TEST_SUITE_P(DimsAndUniverses, CosmoRoundTrip,
                         ::testing::Combine(::testing::Values(8, 16, 32),
                                            ::testing::Values<std::uint64_t>(
                                                0, 1, 2, 3)));

}  // namespace
}  // namespace sciprep::codec
