// Tests for the DeepCAM differential codec: bounded lossy error, line mode
// selection, normalization fusion, layout (transpose) fusion, GPU/CPU
// equivalence, label losslessness, corruption rejection, golden decode digests.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <numbers>

#include "sciprep/codec/cam_codec.hpp"
#include "sciprep/common/crc.hpp"
#include "sciprep/common/error.hpp"
#include "sciprep/common/rng.hpp"
#include "sciprep/compress/deflate.hpp"
#include "sciprep/data/cam_gen.hpp"
#include "sciprep/obs/metrics.hpp"

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

// ---------------------------------------------------------------------------
// Lane schedule: decode_cpu reconstructs delta lines eight at a time, one per
// AVX2 lane (where the host has AVX2); decode_gpu runs the scalar line
// kernel on every line, so it is the bit-exact oracle for the lanes.
// ---------------------------------------------------------------------------

/// decode_cpu and decode_gpu over an exact-size heap copy of `encoded`, so
/// ASan flags any read past the last line; both must give the same bits.
void expect_lanes_match_scalar(const CamCodec& codec, const Bytes& encoded) {
  const auto exact = std::make_unique<std::uint8_t[]>(encoded.size());
  std::memcpy(exact.get(), encoded.data(), encoded.size());
  const ByteSpan span(exact.get(), encoded.size());
  const TensorF16 cpu = codec.decode_cpu(span);
  sim::SimGpu gpu({.sm_count = 2, .warps_per_sm = 2});
  const TensorF16 dev = codec.decode_gpu(span, gpu);
  ASSERT_EQ(cpu.shape, dev.shape);
  ASSERT_EQ(cpu.values.size(), dev.values.size());
  for (std::size_t i = 0; i < cpu.values.size(); ++i) {
    ASSERT_EQ(cpu.values[i].bits(), dev.values[i].bits()) << "value " << i;
  }
}

/// How many delta lines one decode_cpu sent through each schedule, from the
/// codec.cam.{lane,scalar}_lines_total counters.
struct ScheduleCounts {
  std::uint64_t lanes = 0;
  std::uint64_t scalar = 0;
};

ScheduleCounts decode_counting(const CamCodec& codec, const Bytes& encoded) {
  const auto& metrics = obs::MetricsRegistry::global();
  const ScheduleCounts before{
      metrics.counter_value("codec.cam.lane_lines_total"),
      metrics.counter_value("codec.cam.scalar_lines_total")};
  (void)codec.decode_cpu(encoded);
  return {metrics.counter_value("codec.cam.lane_lines_total") - before.lanes,
          metrics.counter_value("codec.cam.scalar_lines_total") -
              before.scalar};
}

bool host_has_lanes() {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

TEST(CamLanes, OddWidthsAndLineCountsMatchScalarKernel) {
  // Widths off the 8-value block leave a per-lane tail; 3 x 9 = 27 lines
  // leave a last group short of 8 for the scalar kernel.
  for (const int width : {23, 1150}) {
    const auto sample = synthetic_sample(5, 9, width, 3);
    for (const bool normalize : {true, false}) {
      for (const CamLayout layout : {CamLayout::kCHW, CamLayout::kHWC}) {
        SCOPED_TRACE(::testing::Message() << "width " << width << " normalize "
                                          << normalize << " layout "
                                          << static_cast<int>(layout));
        const CamCodec codec({.normalize = normalize}, {layout});
        const Bytes encoded = codec.encode_sample(sample);
        ASSERT_GT(CamCodec::inspect(encoded).delta_lines, 8u);
        expect_lanes_match_scalar(codec, encoded);
      }
    }
  }
}

TEST(CamLanes, ShortSegmentLimitsMatchScalarKernel) {
  // A line may hold at most width / 8 segments, so limits below 8 make
  // every line raw (the handmade streams below cover shorter segments);
  // limit 16 keeps lines delta with a segment start in every other block.
  const auto sample = synthetic_sample(6, 12, 1152, 2);
  for (const int limit : {2, 7, 16, 32}) {
    SCOPED_TRACE(::testing::Message() << "max_segment_length " << limit);
    for (const CamLayout layout : {CamLayout::kCHW, CamLayout::kHWC}) {
      const CamCodec codec({.max_segment_length = limit}, {layout});
      const Bytes encoded = codec.encode_sample(sample);
      const CamEncodedInfo info = CamCodec::inspect(encoded);
      if (limit < 8) {
        EXPECT_EQ(info.delta_lines, 0u);
      } else {
        EXPECT_GT(info.delta_lines, 8u);
        EXPECT_GT(info.segments, info.delta_lines * 1152 / (2 * limit));
      }
      expect_lanes_match_scalar(codec, encoded);
    }
  }
}

TEST(CamLanes, SubnormalExponentsTakeTheScalarKernel) {
  // Channel 1 scaled to ~1e-38 with normalize off: its deltas are
  // subnormal, so their segments' 2^emin is not a normal float and those
  // lines must leave the lanes for the scalar kernel.
  auto sample = synthetic_sample(8, 16, 96, 2);
  const auto plane = sample.pixel_count();
  float peak = 0;
  for (std::size_t i = plane; i < 2 * plane; ++i) {
    peak = std::max(peak, std::abs(sample.image[i]));
  }
  for (std::size_t i = plane; i < 2 * plane; ++i) {
    sample.image[i] *= 1e-38F / peak;
  }
  for (const CamLayout layout : {CamLayout::kCHW, CamLayout::kHWC}) {
    const CamCodec codec({.normalize = false}, {layout});
    const Bytes encoded = codec.encode_sample(sample);
    expect_lanes_match_scalar(codec, encoded);
    const ScheduleCounts counts = decode_counting(codec, encoded);
    EXPECT_EQ(counts.lanes + counts.scalar,
              CamCodec::inspect(encoded).delta_lines);
    EXPECT_GE(counts.scalar, 8u) << "the scaled channel's delta lines";
    if (host_has_lanes()) {
      EXPECT_GT(counts.lanes, 0u);
    }
  }
}

/// A DeepCAM stream built field by field (the format cam_codec.hpp
/// documents), for line layouts the encoder never emits: segments of any
/// length down to 1, so blocks hold one, two or more segment starts.
Bytes handmade_stream(int channels, int height, int width, bool normalize,
                      const std::vector<Bytes>& lines) {
  ByteWriter out;
  out.put<std::uint32_t>(0x31454143u);  // "CAE1"
  out.put<std::uint8_t>(1);
  out.put<std::uint8_t>(normalize ? 1 : 0);
  out.put<std::uint16_t>(static_cast<std::uint16_t>(channels));
  out.put<std::uint32_t>(static_cast<std::uint32_t>(height));
  out.put<std::uint32_t>(static_cast<std::uint32_t>(width));
  for (int c = 0; c < channels; ++c) {
    out.put<float>(0.25F * static_cast<float>(c));  // mean
    out.put<float>(1.5F);                           // inv_std
  }
  const Bytes labels(static_cast<std::size_t>(height) * width, 0);
  const Bytes packed = compress::deflate(ByteSpan(labels));
  out.put<std::uint32_t>(static_cast<std::uint32_t>(labels.size()));
  out.put<std::uint32_t>(static_cast<std::uint32_t>(packed.size()));
  out.put_bytes(packed);
  out.put<std::uint32_t>(static_cast<std::uint32_t>(lines.size()));
  std::uint32_t offset = 0;
  for (const Bytes& line : lines) {
    out.put<std::uint32_t>(offset);
    offset += static_cast<std::uint32_t>(line.size());
  }
  out.put<std::uint32_t>(offset);
  for (const Bytes& line : lines) out.put_bytes(line);
  return std::move(out).take();
}

/// A delta line of random segments (lengths 1-3 or 9-40, so some blocks
/// hold several starts) with random codes, pivots of about `scale`, and
/// each segment's minimum exponent drawn from [emin_lo, emin_hi].
Bytes random_delta_line(Rng& rng, int width, int emin_lo, int emin_hi,
                        float scale) {
  std::vector<std::uint16_t> counts;
  for (int left = width; left > 0;) {
    const int want = rng.next_below(3) == 0
                         ? 9 + static_cast<int>(rng.next_below(32))
                         : 1 + static_cast<int>(rng.next_below(3));
    counts.push_back(static_cast<std::uint16_t>(std::min(want, left)));
    left -= counts.back();
  }
  ByteWriter line;
  line.put<std::uint8_t>(2);  // delta
  line.put<std::uint16_t>(static_cast<std::uint16_t>(counts.size()));
  for (const std::uint16_t count : counts) {
    line.put<std::uint16_t>(count);
    line.put<float>(scale * static_cast<float>(rng.normal()));
    line.put<std::int16_t>(static_cast<std::int16_t>(
        emin_lo + static_cast<int>(rng.next_below(emin_hi - emin_lo + 1))));
  }
  for (std::size_t i = counts.size(); i < static_cast<std::size_t>(width);
       ++i) {
    // A quarter zero codes; the rest any sign, offset and mantissa.
    line.put<std::uint8_t>(rng.next_below(4) == 0
                               ? 0
                               : static_cast<std::uint8_t>(rng.next_u64()));
  }
  return std::move(line).take();
}

TEST(CamLanes, HandmadeSegmentsAndMixedLinesMatchScalarKernel) {
  // Delta lines at both ends of the lanes' exponent range [-126, 120] and
  // just past them (those take the scalar kernel: 2^(emin + off) there is
  // subnormal or infinite), with pivots scaled so that their deltas count.
  struct Kind {
    int emin_lo, emin_hi;
    float scale;
  };
  constexpr Kind kKinds[] = {{-126, -119, 1e-36F}, {-12, -6, 1.0F},
                             {113, 120, 1e36F},    {-127, -127, 1e-38F},
                             {-140, -128, 1e-38F}, {121, 127, 1e38F}};
  Rng rng(2024);
  const int channels = 3;
  const int height = 13;  // 39 lines: not a multiple of 8
  for (const int width : {9, 23, 64, 1150}) {
    std::vector<Bytes> lines;
    for (int i = 0; i < channels * height; ++i) {
      const auto pick = rng.next_below(14);
      if (pick == 0) {  // raw FP16
        Bytes raw(static_cast<std::size_t>(width) * sizeof(Half) + 1);
        raw[0] = 1;
        for (std::size_t b = 1; b < raw.size(); b += 2) raw[b] = 0x3C;
        lines.push_back(raw);
      } else if (pick == 1) {  // constant
        ByteWriter constant;
        constant.put<std::uint8_t>(0);
        constant.put<float>(-0.75F);
        lines.push_back(std::move(constant).take());
      } else {
        const Kind& k = kKinds[pick % 6];
        lines.push_back(
            random_delta_line(rng, width, k.emin_lo, k.emin_hi, k.scale));
      }
    }
    for (const bool normalize : {true, false}) {
      for (const CamLayout layout : {CamLayout::kCHW, CamLayout::kHWC}) {
        SCOPED_TRACE(::testing::Message() << "width " << width << " normalize "
                                          << normalize << " layout "
                                          << static_cast<int>(layout));
        const CamCodec codec({}, {layout});
        const Bytes encoded =
            handmade_stream(channels, height, width, normalize, lines);
        expect_lanes_match_scalar(codec, encoded);
        if (host_has_lanes()) {
          EXPECT_GE(decode_counting(codec, encoded).lanes, 8u);
        }
      }
    }
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
