// Tests for the DeepCAM differential codec: bounded lossy error, line mode
// selection, normalization fusion, layout (transpose) fusion, GPU/CPU
// equivalence, label losslessness, corruption rejection, golden decode digests.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numbers>

#include "sciprep/codec/cam_codec.hpp"
#include "sciprep/common/crc.hpp"
#include "sciprep/common/error.hpp"
#include "sciprep/common/rng.hpp"
#include "sciprep/data/cam_gen.hpp"

namespace sciprep::codec {
namespace {

io::CamSample synthetic_sample(std::uint64_t index = 0, int h = 64, int w = 96,
                               int c = 4) {
  data::CamGenConfig cfg;
  cfg.height = h;
  cfg.width = w;
  cfg.channels = c;
  cfg.seed = 99;
  return data::CamGenerator(cfg).generate(index);
}

/// Normalized ground truth for a pixel (matches the codec's convention).
std::vector<float> normalized_reference(const io::CamSample& s) {
  std::vector<float> out(s.value_count());
  for (int c = 0; c < s.channels; ++c) {
    const float* plane = s.image.data() + static_cast<std::size_t>(c) * s.pixel_count();
    double sum = 0;
    for (std::size_t i = 0; i < s.pixel_count(); ++i) sum += plane[i];
    const double mean = sum / static_cast<double>(s.pixel_count());
    double var = 0;
    for (std::size_t i = 0; i < s.pixel_count(); ++i) {
      var += (plane[i] - mean) * (plane[i] - mean);
    }
    var /= static_cast<double>(s.pixel_count());
    const double inv = 1.0 / std::sqrt(std::max(var, 1e-12));
    for (std::size_t i = 0; i < s.pixel_count(); ++i) {
      out[static_cast<std::size_t>(c) * s.pixel_count() + i] =
          static_cast<float>((plane[i] - mean) * inv);
    }
  }
  return out;
}

TEST(CamCodec, LossyButBounded) {
  const auto sample = synthetic_sample();
  const CamCodec codec;
  const Bytes encoded = codec.encode_sample(sample);
  const TensorF16 decoded = codec.decode_cpu(encoded);
  ASSERT_EQ(decoded.values.size(), sample.value_count());

  const std::vector<float> reference = normalized_reference(sample);
  // Paper §V.A: "roughly 3% of the values with larger than 10% error,
  // primarily for small values close to zero". Bound the tail at 10%.
  const double bad = fraction_above_rel_error(reference, decoded.values, 0.10);
  EXPECT_LT(bad, 0.10) << "fraction above 10% rel error";
  // And most values are much better than that.
  const double loose = fraction_above_rel_error(reference, decoded.values, 0.5);
  EXPECT_LT(loose, 0.02);
}

TEST(CamCodec, CompressesSmoothImages) {
  const auto sample = synthetic_sample(1);
  const CamCodec codec;
  const Bytes encoded = codec.encode_sample(sample);
  const double ratio = static_cast<double>(sample.byte_size()) /
                       static_cast<double>(encoded.size());
  EXPECT_GT(ratio, 2.0) << "encoded " << encoded.size() << " of "
                        << sample.byte_size();
  const CamEncodedInfo info = CamCodec::inspect(encoded);
  EXPECT_GT(info.delta_lines, info.raw_lines)
      << "smooth climate images must mostly delta-encode";
}

TEST(CamCodec, LabelsAreLossless) {
  const auto sample = synthetic_sample(2);
  const CamCodec codec;
  const TensorF16 decoded = codec.decode_cpu(codec.encode_sample(sample));
  EXPECT_EQ(decoded.byte_labels, sample.labels);
}

TEST(CamCodec, GpuDecodeMatchesCpu) {
  const auto sample = synthetic_sample(3);
  const CamCodec codec;
  const Bytes encoded = codec.encode_sample(sample);
  const TensorF16 cpu = codec.decode_cpu(encoded);
  sim::SimGpu gpu({.sm_count = 8, .warps_per_sm = 4});
  const TensorF16 dev = codec.decode_gpu(encoded, gpu);
  ASSERT_EQ(cpu.values.size(), dev.values.size());
  for (std::size_t i = 0; i < cpu.values.size(); ++i) {
    ASSERT_EQ(cpu.values[i].bits(), dev.values[i].bits()) << "value " << i;
  }
  EXPECT_EQ(cpu.byte_labels, dev.byte_labels);
  // Delta lines create divergence the stats must expose.
  EXPECT_GT(gpu.lifetime_stats().divergent_branches, 0u);
}

TEST(CamCodec, HwcLayoutIsTransposedChw) {
  const auto sample = synthetic_sample(4, 16, 24, 3);
  const CamCodec chw_codec({}, {CamLayout::kCHW});
  const CamCodec hwc_codec({}, {CamLayout::kHWC});
  const Bytes encoded = chw_codec.encode_sample(sample);
  const TensorF16 chw = chw_codec.decode_cpu(encoded);
  const TensorF16 hwc = hwc_codec.decode_cpu(encoded);
  ASSERT_EQ(chw.shape, (std::vector<std::uint64_t>{3, 16, 24}));
  ASSERT_EQ(hwc.shape, (std::vector<std::uint64_t>{16, 24, 3}));
  for (int c = 0; c < 3; ++c) {
    for (int y = 0; y < 16; ++y) {
      for (int x = 0; x < 24; ++x) {
        const std::size_t ci = (static_cast<std::size_t>(c) * 16 + y) * 24 + x;
        const std::size_t hi = (static_cast<std::size_t>(y) * 24 + x) * 3 + c;
        ASSERT_EQ(chw.values[ci].bits(), hwc.values[hi].bits());
      }
    }
  }
  // GPU path honours the layout too.
  sim::SimGpu gpu({.sm_count = 4, .warps_per_sm = 2});
  const TensorF16 hwc_gpu = hwc_codec.decode_gpu(encoded, gpu);
  for (std::size_t i = 0; i < hwc.values.size(); ++i) {
    ASSERT_EQ(hwc.values[i].bits(), hwc_gpu.values[i].bits());
  }
}

TEST(CamCodec, ConstantLinesCollapse) {
  io::CamSample sample;
  sample.height = 8;
  sample.width = 64;
  sample.channels = 2;
  sample.image.assign(sample.value_count(), 42.5F);
  sample.labels.assign(sample.pixel_count(), 0);
  CamEncodeOptions opt;
  opt.normalize = false;  // keep raw values observable
  const CamCodec codec(opt);
  const Bytes encoded = codec.encode_sample(sample);
  const CamEncodedInfo info = CamCodec::inspect(encoded);
  EXPECT_EQ(info.constant_lines, 16u);
  EXPECT_EQ(info.delta_lines, 0u);
  const TensorF16 decoded = codec.decode_cpu(encoded);
  for (const Half h : decoded.values) {
    ASSERT_EQ(h.to_float(), 42.5F);
  }
}

TEST(CamCodec, AbruptLinesFallBackToRaw) {
  io::CamSample sample;
  sample.height = 4;
  sample.width = 128;
  sample.channels = 1;
  sample.image.resize(sample.value_count());
  Rng rng(123);
  // White noise spanning decades: differential encoding cannot win.
  for (auto& v : sample.image) {
    v = static_cast<float>(rng.normal()) *
        std::pow(10.0F, static_cast<float>(rng.uniform(-3, 3)));
  }
  sample.labels.assign(sample.pixel_count(), 0);
  const CamCodec codec;
  const CamEncodedInfo info = CamCodec::inspect(codec.encode_sample(sample));
  EXPECT_GT(info.raw_lines, 0u);
}

TEST(CamCodec, RawLinesAreFp16Exact) {
  // A raw line decodes to exactly fp16(normalized value) — same as baseline.
  io::CamSample sample;
  sample.height = 2;
  sample.width = 64;
  sample.channels = 1;
  sample.image.resize(sample.value_count());
  Rng rng(9);
  for (auto& v : sample.image) {
    v = static_cast<float>(rng.normal() * 100.0);
  }
  sample.labels.assign(sample.pixel_count(), 0);
  const CamCodec codec;
  const Bytes encoded = codec.encode_sample(sample);
  const CamEncodedInfo info = CamCodec::inspect(encoded);
  ASSERT_EQ(info.raw_lines, 2u);  // white noise lines go raw
  const TensorF16 decoded = codec.decode_cpu(encoded);
  const TensorF16 reference = CamCodec::reference_preprocess_sample(sample);
  for (std::size_t i = 0; i < decoded.values.size(); ++i) {
    ASSERT_EQ(decoded.values[i].bits(), reference.values[i].bits());
  }
}

TEST(CamCodec, NoiseRemovalOnSmoothLines) {
  // A smooth ramp with tiny sensor noise: the decoded line must be closer to
  // the clean ramp than the noisy input is (the paper's "effectively removes
  // noises" claim).
  const int w = 512;
  io::CamSample sample;
  sample.height = 1;
  sample.width = w;
  sample.channels = 1;
  sample.image.resize(static_cast<std::size_t>(w));
  sample.labels.assign(static_cast<std::size_t>(w), 0);
  std::vector<float> clean(static_cast<std::size_t>(w));
  Rng rng(17);
  for (int x = 0; x < w; ++x) {
    clean[static_cast<std::size_t>(x)] =
        100.0F + 0.5F * static_cast<float>(x) +
        10.0F * std::sin(static_cast<float>(x) * 0.02F);
    sample.image[static_cast<std::size_t>(x)] =
        clean[static_cast<std::size_t>(x)] +
        1e-4F * static_cast<float>(rng.normal());
  }
  CamEncodeOptions opt;
  opt.normalize = false;
  const CamCodec codec(opt);
  const TensorF16 decoded = codec.decode_cpu(codec.encode_sample(sample));
  double err_decoded = 0;
  for (int x = 0; x < w; ++x) {
    err_decoded += std::abs(decoded.values[static_cast<std::size_t>(x)].to_float() -
                            clean[static_cast<std::size_t>(x)]);
  }
  // FP16 quantization at magnitude ~300 has ulp ~0.25; the decoded signal
  // must stay within a few ulp of the clean ramp on average.
  EXPECT_LT(err_decoded / w, 0.5);
}

TEST(CamCodec, ReconstructionDoesNotDrift) {
  // Long smooth line: per-value error must not grow with x (the encoder
  // tracks its own reconstruction).
  const int w = 4096;
  io::CamSample sample;
  sample.height = 1;
  sample.width = w;
  sample.channels = 1;
  sample.image.resize(static_cast<std::size_t>(w));
  sample.labels.assign(static_cast<std::size_t>(w), 0);
  for (int x = 0; x < w; ++x) {
    sample.image[static_cast<std::size_t>(x)] =
        std::sin(static_cast<float>(x) * 0.01F) * 50.0F + 200.0F;
  }
  CamEncodeOptions opt;
  opt.normalize = false;
  const CamCodec codec(opt);
  const TensorF16 decoded = codec.decode_cpu(codec.encode_sample(sample));
  double head_err = 0;
  double tail_err = 0;
  for (int x = 0; x < 256; ++x) {
    head_err += std::abs(decoded.values[static_cast<std::size_t>(x)].to_float() -
                         sample.image[static_cast<std::size_t>(x)]);
    tail_err += std::abs(
        decoded.values[static_cast<std::size_t>(w - 1 - x)].to_float() -
        sample.image[static_cast<std::size_t>(w - 1 - x)]);
  }
  EXPECT_LT(tail_err, head_err * 4 + 32.0);
}

TEST(CamCodec, NormalizationKeepsLargeMagnitudesInFp16Range) {
  // Pressure-scale channels (~1e5) overflow FP16 without the fused
  // normalization; with it, every decoded value must be finite.
  const auto sample = synthetic_sample(5, 32, 64, 16);
  const CamCodec codec;
  const TensorF16 decoded = codec.decode_cpu(codec.encode_sample(sample));
  for (const Half h : decoded.values) {
    ASSERT_FALSE(h.is_inf());
    ASSERT_FALSE(h.is_nan());
  }
}

TEST(CamCodec, RejectsCorruptMagic) {
  const auto sample = synthetic_sample(6, 16, 32, 2);
  const CamCodec codec;
  Bytes encoded = codec.encode_sample(sample);
  encoded[1] ^= 0xFF;
  EXPECT_THROW(codec.decode_cpu(encoded), FormatError);
}

TEST(CamCodec, RejectsTruncation) {
  const auto sample = synthetic_sample(6, 16, 32, 2);
  const CamCodec codec;
  const Bytes encoded = codec.encode_sample(sample);
  EXPECT_THROW(
      codec.decode_cpu(ByteSpan(encoded).first(encoded.size() - 7)),
      FormatError);
}

TEST(CamCodec, RejectsDegenerateWidth) {
  io::CamSample sample;
  sample.height = 2;
  sample.width = 1;
  sample.channels = 1;
  sample.image.assign(2, 0.0F);
  sample.labels.assign(2, 0);
  const CamCodec codec;
  EXPECT_THROW(codec.encode_sample(sample), ConfigError);
}

TEST(CamCodec, BadOptionsRejected) {
  CamEncodeOptions opt;
  opt.max_segment_length = 1;
  EXPECT_THROW(CamCodec{opt}, ConfigError);
}

TEST(CamCodec, PluginInterfaceWorksEndToEnd) {
  const auto sample = synthetic_sample(7, 32, 48, 4);
  const CamCodec codec;
  const SampleCodec& plugin = codec;
  EXPECT_EQ(plugin.name(), "cam-delta");
  const Bytes raw = sample.serialize();
  const Bytes encoded = plugin.encode(raw);
  EXPECT_LT(encoded.size(), raw.size());
  const TensorF16 decoded = plugin.decode_cpu(encoded);
  const TensorF16 reference = plugin.reference_preprocess(raw);
  ASSERT_EQ(decoded.values.size(), reference.values.size());
  std::vector<float> ref_floats(reference.values.size());
  for (std::size_t i = 0; i < reference.values.size(); ++i) {
    ref_floats[i] = reference.values[i].to_float();
  }
  EXPECT_LT(fraction_above_rel_error(ref_floats, decoded.values, 0.10), 0.10);
}

/// CRC32C of a tensor's FP16 bits, for pinning decode output.
std::uint32_t fp16_digest(const TensorF16& t) {
  return crc32c(ByteSpan(reinterpret_cast<const std::uint8_t*>(t.values.data()),
                         t.values.size() * sizeof(Half)));
}

// Golden decode digests, recorded from the scalar per-value decoder. The
// reconstruction and the FP16 emit may change implementation (table-driven
// exponents, a hardware span convert), never a bit of output.
struct CamGolden {
  CamLayout layout;
  bool normalize;
  std::uint32_t decode;     // decode_cpu and decode_gpu
  std::uint32_t reference;  // reference_preprocess_sample
};

constexpr CamGolden kCamGolden[] = {
    {CamLayout::kCHW, true, 0x399ecf52u, 0x75e99432u},
    {CamLayout::kCHW, false, 0x1d44139fu, 0x755d5dd2u},
    {CamLayout::kHWC, true, 0xcccd0e9au, 0xedff5342u},
    {CamLayout::kHWC, false, 0xf0d4b0c9u, 0xd7984301u},
};

TEST(CamCodec, GoldenDecodeDigests) {
  // All 16 channel kinds, so normalize-off overflows pressure to FP16 Inf;
  // dense cyclones for raw lines, and one forced constant line.
  data::CamGenConfig cfg;
  cfg.height = 32;
  cfg.width = 1152;
  cfg.channels = 16;
  cfg.seed = 99;
  cfg.cyclone_rate = 12;
  io::CamSample sample = data::CamGenerator(cfg).generate(11);
  std::fill_n(sample.image.begin() + 5 * cfg.width, cfg.width, 2.5F);
  for (const CamGolden& g : kCamGolden) {
    SCOPED_TRACE(::testing::Message()
                 << (g.layout == CamLayout::kCHW ? "CHW" : "HWC")
                 << " normalize=" << g.normalize);
    const CamCodec codec({.normalize = g.normalize}, {g.layout});
    const Bytes encoded = codec.encode_sample(sample);
    const CamEncodedInfo info = CamCodec::inspect(encoded);
    EXPECT_GT(info.constant_lines, 0u);
    EXPECT_GT(info.delta_lines, 0u);
    EXPECT_GT(info.raw_lines, 0u);
    EXPECT_EQ(fp16_digest(codec.decode_cpu(encoded)), g.decode);
    sim::SimGpu gpu({.sm_count = 4, .warps_per_sm = 2});
    EXPECT_EQ(fp16_digest(codec.decode_gpu(encoded, gpu)), g.decode);
    // SimGpu accounting, recorded with the digests: the sim-charged figures
    // (Figs 8 and 9) read these counters. HWC adds one strided-store
    // divergence per 32-value flush.
    const sim::KernelStats& stats = gpu.lifetime_stats();
    EXPECT_EQ(stats.warps, 512u);
    EXPECT_EQ(stats.lockstep_ops, 18612u);
    EXPECT_EQ(stats.divergent_branches,
              g.layout == CamLayout::kCHW ? 3497u : 21929u);
    EXPECT_EQ(stats.bytes_read, 618777u);
    EXPECT_EQ(stats.bytes_written, 1179648u);
    EXPECT_EQ(fp16_digest(CamCodec::reference_preprocess_sample(
                  sample, g.normalize, g.layout)),
              g.reference);
  }
}

// Property sweep: bounded error across samples and image sizes.
class CamErrorSweep
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, int>> {};

TEST_P(CamErrorSweep, ErrorTailBounded) {
  const std::uint64_t index = std::get<0>(GetParam());
  const int width = std::get<1>(GetParam());
  const auto sample = synthetic_sample(index, 48, width, 8);
  const CamCodec codec;
  const TensorF16 decoded = codec.decode_cpu(codec.encode_sample(sample));
  const std::vector<float> reference = normalized_reference(sample);
  EXPECT_LT(fraction_above_rel_error(reference, decoded.values, 0.10), 0.10);
}

INSTANTIATE_TEST_SUITE_P(SamplesAndWidths, CamErrorSweep,
                         ::testing::Combine(::testing::Values<std::uint64_t>(0,
                                                                             1,
                                                                             2),
                                            ::testing::Values(64, 96, 160)));

TEST(FractionAboveRelError, CountsCorrectly) {
  const std::vector<float> ref = {1.0F, 2.0F, 0.0F, -4.0F};
  const std::vector<Half> dec = {Half(1.05F), Half(2.5F), Half(0.0F),
                                 Half(-4.0F)};
  // 1.05 within 10%, 2.5 exceeds, 0->0 fine, -4 exact: 1 of 4.
  EXPECT_DOUBLE_EQ(fraction_above_rel_error(ref, dec, 0.10), 0.25);
}

}  // namespace
}  // namespace sciprep::codec
