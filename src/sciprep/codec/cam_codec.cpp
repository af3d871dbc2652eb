#include "sciprep/codec/cam_codec.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <utility>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "sciprep/common/error.hpp"
#include "sciprep/compress/deflate.hpp"
#include "sciprep/guard/cancel.hpp"
#include "sciprep/obs/metrics.hpp"
#include "sciprep/obs/trace.hpp"

namespace sciprep::codec {

namespace {

constexpr std::uint32_t kMagic = 0x31454143u;  // "CAE1"
constexpr std::uint8_t kVersion = 1;
constexpr std::uint8_t kFlagNormalize = 0x01;

constexpr std::uint8_t kModeConstant = 0;
constexpr std::uint8_t kModeRaw16 = 1;
constexpr std::uint8_t kModeDelta = 2;

/// A line whose delta form needs more than width / kMaxSegmentRatio
/// segments is considered abrupt and stored raw.
constexpr std::size_t kMaxSegmentRatio = 8;

/// One quantized difference: sign, intrinsic exponent, 4-bit mantissa.
/// The encoded byte stores the exponent as an offset from the segment's
/// minimum exponent (3 bits), so the intrinsic exponent is what segmentation
/// reasons about.
struct QDelta {
  bool zero = true;
  bool negative = false;
  int exponent = 0;       // intrinsic: |d| = (1 + mant/16) * 2^exponent
  std::uint8_t mant = 0;  // 0..15

  [[nodiscard]] float value() const {
    if (zero) return 0.0F;
    const float magnitude =
        (1.0F + static_cast<float>(mant) / 16.0F) *
        std::ldexp(1.0F, exponent);
    return negative ? -magnitude : magnitude;
  }
};

/// Quantize a difference to the 8-bit delta representation.
QDelta quantize(float d) {
  QDelta q;
  if (d == 0.0F || !std::isfinite(d)) {
    return q;  // zero code; non-finite inputs fall back to raw lines upstream
  }
  q.zero = false;
  q.negative = std::signbit(d);
  const float a = std::abs(d);
  int exp = 0;
  const float frac = std::frexp(a, &exp);  // a = frac * 2^exp, frac in [0.5,1)
  q.exponent = exp - 1;                     // a = (2*frac) * 2^(exp-1)
  const float m = 2.0F * frac;              // in [1, 2)
  int mant = static_cast<int>(std::lround((m - 1.0F) * 16.0F));
  if (mant == 16) {  // rounded up to the next binade
    mant = 0;
    ++q.exponent;
  }
  q.mant = static_cast<std::uint8_t>(mant);
  return q;
}

std::uint8_t pack_delta(const QDelta& q, int emin) {
  if (q.zero) return 0x00;
  const int off = q.exponent - emin;
  SCIPREP_ASSERT(off >= 0 && off <= 7);
  std::uint8_t byte = static_cast<std::uint8_t>(
      (q.negative ? 0x80 : 0x00) | (off << 4) | q.mant);
  if (byte == 0x00) {
    // +1.0 * 2^emin collides with the zero code; nudge the mantissa one step
    // (a bounded 1/16 relative overestimate on one delta).
    byte = 0x01;
  }
  return byte;
}

/// A planned segment: pivot plus quantized deltas.
struct Segment {
  std::uint16_t count = 0;  // values covered, including the pivot
  float pivot = 0;
  int emin = 0;
};

struct LinePlan {
  std::uint8_t mode = kModeDelta;
  float constant = 0;
  std::vector<Segment> segments;
  std::vector<std::uint8_t> deltas;  // concatenated segment delta bytes
};

/// Build the delta plan for one line. Returns nullopt-like flag via
/// plan.mode: stays kModeDelta on success.
LinePlan plan_line(std::span<const float> line, const CamEncodeOptions& opt) {
  LinePlan plan;

  // Constant line?
  bool constant = true;
  for (const float v : line) {
    if (v != line[0]) {
      constant = false;
      break;
    }
  }
  if (constant && std::isfinite(line[0])) {
    plan.mode = kModeConstant;
    plan.constant = line[0];
    return plan;
  }

  bool finite = true;
  for (const float v : line) {
    if (!std::isfinite(v)) {
      finite = false;
      break;
    }
  }
  if (!finite) {
    plan.mode = kModeRaw16;  // NaN/Inf lines cannot be differenced safely
    return plan;
  }

  // Scale for judging reconstruction quality: errors far below the line's
  // RMS are sensor noise the codec is allowed to remove.
  double rms = 0;
  for (const float v : line) {
    rms += static_cast<double>(v) * v;
  }
  rms = std::sqrt(rms / static_cast<double>(line.size()));
  const double abs_floor = 1e-3 * rms;

  // Differential scan with exponent-window segmentation.
  std::vector<QDelta> pending;  // deltas of the open segment
  std::size_t seg_start = 0;
  float recon = line[0];
  int min_e = 0;
  int max_e = 0;
  bool have_e = false;
  std::size_t significant_errors = 0;

  auto close_segment = [&](std::size_t end) {
    Segment seg;
    seg.count = static_cast<std::uint16_t>(end - seg_start);
    seg.pivot = line[seg_start];
    seg.emin = have_e ? min_e : 0;
    for (const QDelta& q : pending) {
      plan.deltas.push_back(pack_delta(q, seg.emin));
    }
    plan.segments.push_back(seg);
    pending.clear();
    have_e = false;
  };

  for (std::size_t i = 1; i < line.size(); ++i) {
    const float d = line[i] - recon;
    QDelta q = quantize(d);
    bool open_new = false;
    if (!q.zero) {
      if (!have_e) {
        min_e = max_e = q.exponent;
        have_e = true;
      } else if (q.exponent > max_e) {
        if (q.exponent - min_e > 7) {
          open_new = true;  // jump too large for this segment's window
        } else {
          max_e = q.exponent;
        }
      } else if (q.exponent < min_e) {
        if (max_e - q.exponent > 7) {
          // Below the segment's noise floor: the paper's lossy smoothing —
          // encode as "no change" and let the residual re-enter the next
          // delta (self-correcting drift).
          q = QDelta{};
        } else {
          min_e = q.exponent;
        }
      }
    }
    if (!open_new &&
        i - seg_start >= static_cast<std::size_t>(opt.max_segment_length)) {
      open_new = true;
    }
    if (open_new) {
      close_segment(i);
      seg_start = i;
      recon = line[i];  // new pivot: reconstruction resets exactly
      continue;
    }
    pending.push_back(q);
    recon += q.value();
    // Quality gate bookkeeping: a value the reconstruction misses by more
    // than 10% relative AND more than the noise floor is a real loss.
    const double err = std::abs(static_cast<double>(recon) - line[i]);
    if (err > 0.10 * std::abs(static_cast<double>(line[i])) &&
        err > abs_floor) {
      ++significant_errors;
    }
  }
  close_segment(line.size());

  // Abrupt-line fallback (paper §V.A: "lines with abrupt transitions or
  // where the number of segments is large, we do not compress"): too many
  // segments, meaningful reconstruction error, or no size win over raw FP16.
  const std::size_t delta_bytes =
      2 + plan.segments.size() * 8 + plan.deltas.size();
  const std::size_t raw_bytes = line.size() * 2;
  const bool too_fragmented =
      plan.segments.size() > line.size() / kMaxSegmentRatio;
  const bool too_lossy = significant_errors > line.size() / 50;  // > 2%
  if (too_fragmented || too_lossy || delta_bytes >= raw_bytes) {
    plan.mode = kModeRaw16;
    plan.segments.clear();
    plan.deltas.clear();
  }
  return plan;
}

struct ChannelStats {
  float mean = 0;
  float inv_std = 1;
};

/// Per-sample statistics of one channel plane for the fused normalization.
ChannelStats channel_stats(const float* plane, std::size_t n) {
  double sum = 0;
  for (std::size_t i = 0; i < n; ++i) sum += plane[i];
  const double mean = sum / static_cast<double>(n);
  double var = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = plane[i] - mean;
    var += d * d;
  }
  var /= static_cast<double>(n);
  return {static_cast<float>(mean),
          static_cast<float>(1.0 / std::sqrt(std::max(var, 1e-12)))};
}

/// Lines the lane schedule reconstructs at once, one per AVX2 lane, each
/// into a row of whole 8-value blocks.
constexpr std::size_t kLanes = 8;
constexpr std::size_t lane_row(std::size_t w) { return (w + 7) / 8 * 8; }

/// Per-thread line scratch, reused across lines and samples: kLanes FP32
/// rows (the scalar kernel uses one) and the staged FP16 line of HWC emits.
struct LineScratch {
  std::vector<float> f32;
  std::vector<Half> f16;
};

LineScratch& line_scratch(std::size_t width) {
  thread_local LineScratch scratch;
  if (scratch.f16.size() < width) {
    scratch.f32.resize(kLanes * lane_row(width));
    scratch.f16.resize(width);
  }
  return scratch;
}

/// The codec's FP16 emit: the fused normalize in place, one span convert for
/// the whole line, written to `dst[x * stride]` — straight through for
/// stride 1, staged then scattered otherwise (the fused layout transpose).
void emit_line(float* line, std::size_t width, ChannelStats s,
               bool normalize, Half* dst, std::size_t stride) {
  if (normalize) {
    std::size_t x = 0;
    for (; x + 8 <= width; x += 8) {  // blocks of 8, which -O2 vectorizes
      for (int k = 0; k < 8; ++k) {
        line[x + k] = (line[x + k] - s.mean) * s.inv_std;
      }
    }
    for (; x < width; ++x) line[x] = (line[x] - s.mean) * s.inv_std;
  }
  if (stride == 1) {
    fp32_to_fp16_n(line, dst, width);
    return;
  }
  // `line` may be this thread's f32 scratch; callers sized it for `width`
  // already, so this lookup does not reallocate it.
  Half* staged = line_scratch(width).f16.data();
  fp32_to_fp16_n(line, staged, width);
  for (std::size_t x = 0; x < width; ++x) {
    dst[x * stride] = staged[x];
  }
}

// ---------------------------------------------------------------------------
// Parsed encoded form
// ---------------------------------------------------------------------------

struct ParsedLine {
  std::uint8_t mode = 0;
  ByteSpan body;  // mode-specific payload
};

struct ParsedCam {
  int channels = 0;
  int height = 0;
  int width = 0;
  bool normalize = false;
  std::vector<ChannelStats> stats;
  Bytes labels;                // decompressed
  std::vector<ParsedLine> lines;
};

/// The one validation point of the format, short of the delta segments
/// that reconstruct_delta checks: every schedule trusts the lines' modes
/// and the constant and raw bodies' sizes.
ParsedCam parse_cam(ByteSpan encoded) {
  ByteReader in(encoded);
  if (in.get<std::uint32_t>() != kMagic) {
    throw_format("cam codec: bad magic");
  }
  const auto version = in.get<std::uint8_t>();
  if (version != kVersion) {
    throw_format("cam codec: unsupported version {}", version);
  }
  ParsedCam p;
  p.normalize = (in.get<std::uint8_t>() & kFlagNormalize) != 0;
  p.channels = in.get<std::uint16_t>();
  p.height = static_cast<int>(in.get<std::uint32_t>());
  p.width = static_cast<int>(in.get<std::uint32_t>());
  if (p.channels <= 0 || p.height <= 0 || p.width <= 1) {
    throw_format("cam codec: degenerate dims {}x{}x{}", p.channels, p.height,
                 p.width);
  }
  const std::uint64_t pixel_count = static_cast<std::uint64_t>(p.height) *
                                    static_cast<std::uint64_t>(p.width);
  if (static_cast<std::uint64_t>(p.channels) * pixel_count >
      (std::uint64_t{1} << 28)) {
    throw_format("cam codec: implausible dims {}x{}x{}", p.channels, p.height,
                 p.width);
  }
  p.stats.resize(static_cast<std::size_t>(p.channels));
  for (auto& s : p.stats) {
    s.mean = in.get<float>();
    s.inv_std = in.get<float>();
  }
  const auto labels_raw = in.get<std::uint32_t>();
  const auto labels_comp = in.get<std::uint32_t>();
  // One u8 label per pixel — validate before inflate so a bit-rotted size
  // field cannot demand an arbitrarily large decompression buffer.
  if (labels_raw != pixel_count) {
    throw_format("cam codec: {} label bytes for a {}x{} image", labels_raw,
                 p.height, p.width);
  }
  const ByteSpan comp = in.get_bytes(labels_comp);
  p.labels = compress::inflate(comp, labels_raw);
  if (p.labels.size() != labels_raw) {
    throw_format("cam codec: labels decompressed to {} bytes, expected {}",
                 p.labels.size(), labels_raw);
  }

  const auto line_count = in.get<std::uint32_t>();
  const std::uint64_t expect_lines =
      static_cast<std::uint64_t>(p.channels) * static_cast<std::uint64_t>(p.height);
  if (line_count != expect_lines) {
    throw_format("cam codec: {} lines for {}x{} image", line_count, p.channels,
                 p.height);
  }
  if (in.remaining() / 4 < static_cast<std::uint64_t>(line_count) + 1) {
    throw_format("cam codec: stream too short for {} line offsets",
                 line_count);
  }
  std::vector<std::uint32_t> offsets(line_count + 1);
  for (auto& o : offsets) {
    o = in.get<std::uint32_t>();
  }
  const ByteSpan payload = in.get_bytes(offsets.back());
  if (!in.done()) {
    throw_format("cam codec: {} trailing bytes", in.remaining());
  }
  p.lines.resize(line_count);
  const auto raw_line_bytes = static_cast<std::size_t>(p.width) * sizeof(Half);
  for (std::uint32_t i = 0; i < line_count; ++i) {
    if (offsets[i + 1] < offsets[i] || offsets[i + 1] > payload.size()) {
      throw_format("cam codec: line {} offsets out of order", i);
    }
    ByteSpan body = payload.subspan(offsets[i], offsets[i + 1] - offsets[i]);
    if (body.empty()) {
      throw_format("cam codec: empty line {}", i);
    }
    const std::uint8_t mode = body[0];
    body = body.subspan(1);
    // Delta lines vary in size; reconstruct_delta checks their segments.
    const bool bad_size =
        (mode == kModeConstant && body.size() != sizeof(float)) ||
        (mode == kModeRaw16 && body.size() != raw_line_bytes);
    if (mode > kModeDelta || bad_size) {
      throw_format("cam codec: line {} has mode {} and {} bytes", i, mode,
                   body.size());
    }
    p.lines[i] = {mode, body};
  }
  return p;
}

/// The exact signed factors ±(1 + mant/16) of a delta code, indexed by its
/// sign bit and 4-bit mantissa: (byte & 0x0F) | (byte & 0x80) >> 3.
constexpr auto kSignedMantissa = [] {
  std::array<float, 32> m{};
  for (std::size_t i = 0; i < 16; ++i) {
    m[i] = 1.0F + static_cast<float>(i) / 16.0F;
    m[i + 16] = -m[i];
  }
  return m;
}();

/// A delta line's checked header. normal_exponents: every 2^(emin + off)
/// is a normal float (emin in [-126, 120]), so lanes can build it from bits.
struct DeltaHeader {
  std::uint16_t seg_count = 0;
  const std::uint8_t* deltas = nullptr;
  bool normal_exponents = false;
};

/// The one delta-header check, for both schedules: every segment non-empty,
/// the segments covering the line exactly, no bytes after the deltas.
DeltaHeader check_delta(ByteSpan body, std::size_t width) {
  ByteReader in(body);
  DeltaHeader h{in.get<std::uint16_t>(), nullptr, true};
  std::size_t covered = 0;
  for (std::uint16_t s = 0; s < h.seg_count; ++s) {
    const auto count = in.get<std::uint16_t>();
    in.skip(sizeof(float));
    const int emin = in.get<std::int16_t>();
    if (count == 0) {
      throw_format("cam codec: empty segment");
    }
    covered += count;
    h.normal_exponents = h.normal_exponents && emin >= -126 && emin <= 120;
  }
  if (covered != width) {
    throw_format("cam codec: segments cover {} of {} values", covered, width);
  }
  h.deltas = in.get_bytes(covered - h.seg_count).data();
  if (!in.done()) {
    throw_format("cam codec: trailing bytes in delta line");
  }
  return h;
}

/// Reconstruct a checked delta line in FP32 into `recon[0, width)` (paper
/// §V.A). Each segment hoists its exponent window into
/// p2[off] = 2^(emin + off), so a delta costs two table loads and the
/// multiply the per-value ldexp form computed — the same product, so the
/// same bits.
void reconstruct_delta(ByteSpan body, std::size_t width, float* recon) {
  const DeltaHeader h = check_delta(body, width);
  const std::uint8_t* delta = h.deltas;
  ByteReader header(body.subspan(sizeof(std::uint16_t)));
  for (std::uint16_t s = 0; s < h.seg_count; ++s) {
    const auto count = header.get<std::uint16_t>();
    float v = header.get<float>();
    const int emin = header.get<std::int16_t>();
    std::array<float, 9> p2{};  // p2[8] stays 0: it scales the zero code
    for (std::size_t off = 0; off < 8; ++off) {
      p2[off] = std::ldexp(1.0F, emin + static_cast<int>(off));
    }
    *recon++ = v;
    for (std::uint16_t i = 1; i < count; ++i) {
      const unsigned b = *delta++;
      v += kSignedMantissa[(b & 0x0Fu) | ((b & 0x80u) >> 3)] *
           p2[b == 0 ? 8 : (b >> 4) & 0x07u];
      *recon++ = v;
    }
  }
}

/// The line kernel: decode one encoded line to FP16 at `dst[x * stride]`.
/// Raw lines copy their stored bits (normalized at encode time); constant
/// and delta lines reconstruct in FP32 in the thread's scratch and go
/// through emit_line.
void decode_line(const ParsedLine& line, std::size_t width,
                 const ChannelStats& stats, bool normalize, Half* dst,
                 std::size_t stride) {
  float* recon = line_scratch(width).f32.data();
  switch (line.mode) {
    case kModeConstant:
      std::fill_n(recon, width, ByteReader(line.body).get<float>());
      break;
    case kModeRaw16:
      for (std::size_t x = 0; x < width; ++x) {
        std::memcpy(dst + x * stride, line.body.data() + x * sizeof(Half),
                    sizeof(Half));
      }
      return;
    default:  // kModeDelta, the only other mode parse_cam admits
      reconstruct_delta(line.body, width, recon);
      break;
  }
  emit_line(recon, width, stats, normalize, dst, stride);
}

/// A decode's output tensor in the requested layout, and where each
/// (channel, row) line lands in it: `line(c, y)[x * stride]`, the layout
/// transpose fused into the write index.
struct CamOutput {
  CamOutput(int c, int h, int w, CamLayout layout, Bytes labels)
      : chw(layout == CamLayout::kCHW),
        height(static_cast<std::size_t>(h)),
        width(static_cast<std::size_t>(w)),
        stride(chw ? 1 : static_cast<std::size_t>(c)) {
    const auto channels = static_cast<std::uint64_t>(c);
    tensor.shape = chw ? std::vector<std::uint64_t>{channels, height, width}
                       : std::vector<std::uint64_t>{height, width, channels};
    tensor.values.resize(channels * height * width);
    tensor.byte_labels = std::move(labels);
  }

  Half* line(int c, int y) {
    const auto cz = static_cast<std::size_t>(c);
    const auto yz = static_cast<std::size_t>(y);
    return tensor.values.data() +
           (chw ? (cz * height + yz) * width : yz * width * stride + cz);
  }
  Half* line(std::size_t index) {
    return line(static_cast<int>(index / height),
                static_cast<int>(index % height));
  }

  bool chw;
  std::size_t height;
  std::size_t width;
  std::size_t stride;  // between a line's values: 1 (CHW) or channels (HWC)
  TensorF16 tensor;
};

// ---------------------------------------------------------------------------
// Lane schedule: a delta line per AVX2 lane, each in scalar rounding order.
// ---------------------------------------------------------------------------

/// A lane group's lines, per lane: the next delta byte and segment header.
struct LaneGroup {
  const std::uint8_t* delta[kLanes];
  const std::uint8_t* header[kLanes];
};

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
using U32x8 = std::uint32_t __attribute__((vector_size(32)));

/// A block's segment starts: per lane a bit per step, per step the pivots.
struct Starts {
  U32x8 bits{};
  __m256 pivot[8]{};
  U32x8 exp_bits[8]{};  // the new segments' 2^emin
};

/// One 8-value block of all lanes from their 8 codes (words[l] is lane
/// l's): run the 8 steps, transpose the 8x8 values out to the rows at x0.
/// With kStarts, a lane takes its pivot at a start (a zero code there).
template <bool kStarts>
__attribute__((target("avx2"))) inline void run_block(
    __m256& v, U32x8& exp_bits, const std::uint64_t (&words)[kLanes],
    const Starts* starts, float* rows, std::size_t row, std::size_t x0) {
  // Each lane's codes 0-3 and 4-7 as one dword each.
  const __m256i dwords = _mm256_setr_epi32(0, 2, 4, 6, 1, 3, 5, 7);
  const __m256i w03 = _mm256_permutevar8x32_epi32(
      _mm256_load_si256(reinterpret_cast<const __m256i*>(words)), dwords);
  const __m256i w47 = _mm256_permutevar8x32_epi32(
      _mm256_load_si256(reinterpret_cast<const __m256i*>(words + 4)), dwords);
  const U32x8 code_dwords[2] = {
      U32x8(_mm256_permute2x128_si256(w03, w47, 0x20)),
      U32x8(_mm256_permute2x128_si256(w03, w47, 0x31))};
  __m256 s[8];
#pragma GCC unroll 8
  for (unsigned j = 0; j < 8; ++j) {
    // The factors built from bits: ±(1 + mant/16), and 2^(emin + off) or 0
    // for the zero code. t holds the mantissa at bits 19-22, offset 23-25.
    const U32x8 code = code_dwords[j / 4] >> (8 * (j % 4)) & 0xFFu;
    const U32x8 t = code << 19;
    const U32x8 mant = (t & 0x0078'0000u) | (code & 0x80u) << 24 | 0x3F80'0000u;
    const U32x8 p2 = U32x8(code != 0) & (exp_bits + (t & 0x0380'0000u));
    // A separate multiply and add, no FMA: the scalar kernel's roundings.
    v = _mm256_add_ps(v, _mm256_mul_ps(__m256(mant), __m256(p2)));
    if constexpr (kStarts) {
      const U32x8 at = U32x8((starts->bits & (1u << j)) != 0);
      v = at ? starts->pivot[j] : v;
      exp_bits = at ? starts->exp_bits[j] : exp_bits;
    }
    s[j] = v;
  }
  // s[j] holds step j of lanes 0-7; row l takes lane l's 8 steps.
  __m256 t[8];
  __m256 u[8];
  for (int i = 0; i < 8; i += 2) {
    t[i] = _mm256_unpacklo_ps(s[i], s[i + 1]);
    t[i + 1] = _mm256_unpackhi_ps(s[i], s[i + 1]);
  }
  for (int i = 0; i < 8; i += 4) {
    for (int k = 0; k < 2; ++k) {
      u[i + 2 * k] = _mm256_shuffle_ps(t[i + k], t[i + k + 2], 0x44);
      u[i + 2 * k + 1] = _mm256_shuffle_ps(t[i + k], t[i + k + 2], 0xEE);
    }
  }
  for (std::size_t l = 0; l < 4; ++l) {
    _mm256_storeu_ps(rows + l * row + x0,
                     _mm256_permute2f128_ps(u[l], u[l + 4], 0x20));
    _mm256_storeu_ps(rows + (l + 4) * row + x0,
                     _mm256_permute2f128_ps(u[l], u[l + 4], 0x31));
  }
}

/// Reconstruct the group's checked delta lines, all 2^(emin + off) normal,
/// into rows of lane_row(width). In a block with a start, and a last short
/// block, a lane loads the 8 bytes ending at its last code there and
/// spreads its codes over the steps without a start: no load reaches past
/// a line's delta bytes.
__attribute__((target("avx2"))) void reconstruct_lanes(
    LaneGroup g, std::size_t width, float* rows) {
  __m256 v{};
  U32x8 exp_bits{};
  U32x8 next_start{};
  Starts starts;  // entries of steps without a start are stale, unused
  const std::size_t row = lane_row(width);
  for (std::size_t x0 = 0; x0 < width; x0 += 8) {
    const std::size_t len = std::min<std::size_t>(8, width - x0);
    const auto starting = static_cast<unsigned>(_mm256_movemask_ps(
        __m256(next_start < static_cast<std::uint32_t>(x0 + len))));
    alignas(32) std::uint64_t words[kLanes];
    if (starting == 0 && len == 8) {
      for (std::size_t l = 0; l < kLanes; ++l) {
        std::memcpy(&words[l], std::exchange(g.delta[l], g.delta[l] + 8), 8);
      }
      run_block<false>(v, exp_bits, words, nullptr, rows, row, x0);
      continue;
    }
    starts.bits = U32x8{};
    for (std::size_t l = 0; l < kLanes; ++l) {
      while (next_start[l] < x0 + len) {
        ByteReader seg({std::exchange(g.header[l], g.header[l] + 8), 8});
        const std::size_t k = next_start[l] - x0;
        starts.bits[l] |= 1u << k;
        next_start[l] += seg.get<std::uint16_t>();
        starts.pivot[k][l] = seg.get<float>();
        starts.exp_bits[k][l] =
            static_cast<std::uint32_t>(seg.get<std::int16_t>() + 127) << 23;
      }
      const unsigned bits = starts.bits[l];
      const std::size_t codes = len - __builtin_popcount(bits);
      std::uint64_t w;  // its codes in the top bytes
      std::memcpy(&w, g.delta[l] + codes - 8, 8);
      g.delta[l] += codes;
      words[l] = bits == 0 ? w >> (64 - 8 * codes) : 0;
      for (std::size_t j = 0, c = 8 - codes; bits != 0 && j < len; ++j) {
        if (~bits >> j & 1u) words[l] |= (w >> (8 * c++) & 0xFF) << (8 * j);
      }
    }
    run_block<true>(v, exp_bits, words, &starts, rows, row, x0);
  }
}

bool lanes_available() noexcept {
  static const bool available = __builtin_cpu_supports("avx2");
  return available;
}
#else
void reconstruct_lanes(LaneGroup, std::size_t, float*) { SCIPREP_ASSERT(0); }
bool lanes_available() noexcept { return false; }
#endif

}  // namespace

CamCodec::CamCodec(CamEncodeOptions encode_options,
                   CamDecodeOptions decode_options)
    : encode_options_(encode_options), decode_options_(decode_options) {
  if (encode_options_.max_segment_length < 2 ||
      encode_options_.max_segment_length > 65535) {
    throw ConfigError("cam codec: invalid segmentation options");
  }
}

Bytes CamCodec::encode_sample(const io::CamSample& sample) const {
  SCIPREP_ASSERT(sample.image.size() == sample.value_count());
  SCIPREP_ASSERT(sample.labels.size() == sample.pixel_count());
  if (sample.width < 2) {
    throw ConfigError("cam codec: width must be >= 2");
  }

  // Per-channel statistics for the fused normalization.
  std::vector<ChannelStats> stats;
  for (int c = 0; c < sample.channels; ++c) {
    stats.push_back(channel_stats(
        sample.image.data() + static_cast<std::size_t>(c) * sample.pixel_count(),
        sample.pixel_count()));
  }

  ByteWriter out;
  out.put<std::uint32_t>(kMagic);
  out.put<std::uint8_t>(kVersion);
  out.put<std::uint8_t>(encode_options_.normalize ? kFlagNormalize : 0);
  out.put<std::uint16_t>(static_cast<std::uint16_t>(sample.channels));
  out.put<std::uint32_t>(static_cast<std::uint32_t>(sample.height));
  out.put<std::uint32_t>(static_cast<std::uint32_t>(sample.width));
  for (const ChannelStats& s : stats) {
    out.put<float>(s.mean);
    out.put<float>(s.inv_std);
  }

  // Labels: lossless DEFLATE.
  const Bytes packed_labels = compress::deflate(ByteSpan(sample.labels));
  out.put<std::uint32_t>(static_cast<std::uint32_t>(sample.labels.size()));
  out.put<std::uint32_t>(static_cast<std::uint32_t>(packed_labels.size()));
  out.put_bytes(packed_labels);

  // Lines.
  const std::size_t line_count =
      static_cast<std::size_t>(sample.channels) *
      static_cast<std::size_t>(sample.height);
  out.put<std::uint32_t>(static_cast<std::uint32_t>(line_count));

  std::vector<std::uint32_t> offsets;
  offsets.reserve(line_count + 1);
  ByteWriter payload;
  for (int c = 0; c < sample.channels; ++c) {
    const ChannelStats& cs = stats[static_cast<std::size_t>(c)];
    for (int y = 0; y < sample.height; ++y) {
      offsets.push_back(static_cast<std::uint32_t>(payload.size()));
      const std::span<const float> line = sample.line(c, y);
      const LinePlan plan = plan_line(line, encode_options_);
      payload.put<std::uint8_t>(plan.mode);
      switch (plan.mode) {
        case kModeConstant:
          payload.put<float>(plan.constant);
          break;
        case kModeRaw16: {
          LineScratch& scratch = line_scratch(line.size());
          std::copy(line.begin(), line.end(), scratch.f32.begin());
          emit_line(scratch.f32.data(), line.size(), cs,
                    encode_options_.normalize, scratch.f16.data(), 1);
          payload.put_bytes(ByteSpan(
              reinterpret_cast<const std::uint8_t*>(scratch.f16.data()),
              line.size() * sizeof(Half)));
          break;
        }
        case kModeDelta:
          payload.put<std::uint16_t>(
              static_cast<std::uint16_t>(plan.segments.size()));
          for (const Segment& s : plan.segments) {
            payload.put<std::uint16_t>(s.count);
            payload.put<float>(s.pivot);
            payload.put<std::int16_t>(static_cast<std::int16_t>(s.emin));
          }
          payload.put_bytes(plan.deltas);
          break;
        default:
          SCIPREP_ASSERT(false);
      }
    }
  }
  offsets.push_back(static_cast<std::uint32_t>(payload.size()));
  for (const auto o : offsets) {
    out.put<std::uint32_t>(o);
  }
  out.put_bytes(payload.bytes());
  return std::move(out).take();
}

TensorF16 CamCodec::decode_cpu(ByteSpan encoded) const {
  const obs::ScopedSpan span("codec.cam.decode_cpu", "codec");
  // Each counter is bound once (DESIGN §6): the global registry is never
  // destroyed and its reset() keeps every name, so the reference holds.
  static obs::Counter& decode_bytes_in_total =
      obs::MetricsRegistry::global().counter("codec.cam.decode_bytes_in_total");
  decode_bytes_in_total.add(encoded.size());
  ParsedCam p = parse_cam(encoded);
  CamOutput out(p.channels, p.height, p.width, decode_options_.layout,
                std::move(p.labels));
  // Delta lines with normal 2^(emin + off) fill lane groups, across
  // channels; the scalar kernel takes the rest and a last short group.
  const bool lanes = lanes_available();
  LaneGroup group{};
  std::array<std::size_t, kLanes> grouped{};
  std::size_t n = 0;
  std::uint64_t lane_lines = 0;
  std::uint64_t scalar_lines = 0;
  const auto decode_scalar = [&](std::size_t i) {
    scalar_lines += p.lines[i].mode == kModeDelta;
    decode_line(p.lines[i], out.width, p.stats[i / out.height], p.normalize,
                out.line(i), out.stride);
  };
  for (std::size_t i = 0; i < p.lines.size(); ++i) {
    if (i % out.height == 0) guard::poll_cancellation();  // per channel
    const ParsedLine& line = p.lines[i];
    const bool lane = lanes && line.mode == kModeDelta;
    const auto h = lane ? check_delta(line.body, out.width) : DeltaHeader{};
    if (!h.normal_exponents) {
      decode_scalar(i);
      continue;
    }
    group.delta[n] = h.deltas;
    group.header[n] = line.body.data() + sizeof(std::uint16_t);
    grouped[n] = i;
    if (++n < kLanes) continue;
    float* rows = line_scratch(out.width).f32.data();
    reconstruct_lanes(group, out.width, rows);
    for (std::size_t l = 0; l < kLanes; ++l) {
      emit_line(rows + l * lane_row(out.width), out.width,
                p.stats[grouped[l] / out.height], p.normalize,
                out.line(grouped[l]), out.stride);
    }
    lane_lines += kLanes;
    n = 0;
  }
  for (std::size_t l = 0; l < n; ++l) decode_scalar(grouped[l]);
  static obs::Counter& lane_lines_total =
      obs::MetricsRegistry::global().counter("codec.cam.lane_lines_total");
  lane_lines_total.add(lane_lines);
  static obs::Counter& scalar_lines_total =
      obs::MetricsRegistry::global().counter("codec.cam.scalar_lines_total");
  scalar_lines_total.add(scalar_lines);
  return std::move(out.tensor);
}

TensorF16 CamCodec::decode_gpu(ByteSpan encoded, sim::SimGpu& gpu) const {
  const obs::ScopedSpan span("codec.cam.decode_gpu", "codec");
  static obs::Counter& decode_bytes_in_total =
      obs::MetricsRegistry::global().counter("codec.cam.decode_bytes_in_total");
  decode_bytes_in_total.add(encoded.size());
  ParsedCam p = parse_cam(encoded);
  CamOutput out(p.channels, p.height, p.width, decode_options_.layout,
                std::move(p.labels));

  // Hierarchical warp assignment (paper §VI): each line decodes in its own
  // warp — lines are fully independent thanks to the offset table. Within a
  // warp, copy/broadcast tasks run lane-parallel (coalesced 32-value writes);
  // the serial delta reconstruction walks in registers and flushes through
  // lane-parallel stores, with each segment transition noted as divergence.
  const int width = p.width;
  gpu.launch(p.lines.size(), [&](sim::Warp& warp) {
    const int c = static_cast<int>(warp.id()) / p.height;
    const int y = static_cast<int>(warp.id()) % p.height;
    const ChannelStats& cs = p.stats[static_cast<std::size_t>(c)];
    const ParsedLine& line = p.lines[warp.id()];

    // Stage the line into a "shared memory" buffer, then flush with
    // lane-parallel batches of 32 (the coalesced store pattern).
    Half* staged = line_scratch(out.width).f16.data();
    switch (line.mode) {
      case kModeConstant: {
        float v = ByteReader(line.body).get<float>();
        Half h;
        emit_line(&v, 1, cs, p.normalize, &h, 1);
        // Pure broadcast: every lane writes the same register value.
        for (int x0 = 0; x0 < width; x0 += sim::Warp::kLanes) {
          warp.lanes([&](int lane) {
            if (x0 + lane < width) staged[x0 + lane] = h;
          });
        }
        warp.count_read(sizeof(float));
        break;
      }
      case kModeRaw16:
        for (int x0 = 0; x0 < width; x0 += sim::Warp::kLanes) {
          warp.lanes([&](int lane) {
            const int x = x0 + lane;
            if (x < width) {
              std::memcpy(staged + x, line.body.data() + x * sizeof(Half),
                          sizeof(Half));
            }
          });
        }
        warp.count_read(out.width * sizeof(Half));
        break;
      case kModeDelta: {
        // Serial reconstruction: one lane effectively works while the warp
        // waits — the divergence cost the paper's hierarchical scheme
        // mitigates by keeping other warps (other lines) resident.
        decode_line(line, out.width, cs, p.normalize, staged, 1);
        const auto seg_count = ByteReader(line.body).get<std::uint16_t>();
        for (int s = 0; s < seg_count; ++s) {
          warp.note_divergence();
        }
        warp.count_read(line.body.size());
        break;
      }
    }

    // Flush: lane-parallel stores; CHW is coalesced, HWC strides by channel
    // count (counted as divergence pressure for the ablation bench).
    Half* dst = out.line(c, y);
    for (int x0 = 0; x0 < width; x0 += sim::Warp::kLanes) {
      if (!out.chw) warp.note_divergence();  // strided (uncoalesced) stores
      warp.lanes([&](int lane) {
        const int x = x0 + lane;
        if (x < width) dst[static_cast<std::size_t>(x) * out.stride] = staged[x];
      });
    }
    warp.count_write(out.width * sizeof(Half));
  });
  return std::move(out.tensor);
}

CamEncodedInfo CamCodec::inspect(ByteSpan encoded) {
  const ParsedCam p = parse_cam(encoded);
  CamEncodedInfo info;
  for (const ParsedLine& line : p.lines) {
    info.payload_bytes += line.body.size() + 1;
    if (line.mode == kModeConstant) {
      ++info.constant_lines;
    } else if (line.mode == kModeRaw16) {
      ++info.raw_lines;
    } else {
      ++info.delta_lines;
      info.segments += ByteReader(line.body).get<std::uint16_t>();
    }
  }
  return info;
}

TensorF16 CamCodec::reference_preprocess_sample(const io::CamSample& sample,
                                                bool normalize,
                                                CamLayout layout) {
  CamOutput out(sample.channels, sample.height, sample.width, layout,
                sample.labels);
  for (int c = 0; c < sample.channels; ++c) {
    const float* plane =
        sample.image.data() + static_cast<std::size_t>(c) * sample.pixel_count();
    const ChannelStats cs =
        normalize ? channel_stats(plane, sample.pixel_count()) : ChannelStats{};
    for (int y = 0; y < sample.height; ++y) {
      const float* row = plane + static_cast<std::size_t>(y) * out.width;
      Half* dst = out.line(c, y);
      // Scalar per-value emit (same bits as emit_line): the baseline's cost
      // calibrates the step model's unmodified-loader profile (measure.cpp).
      for (std::size_t x = 0; x < out.width; ++x) {
        dst[x * out.stride] =
            Half(normalize ? (row[x] - cs.mean) * cs.inv_std : row[x]);
      }
    }
  }
  return std::move(out.tensor);
}

Bytes CamCodec::encode(ByteSpan raw_sample) const {
  const obs::ScopedSpan span("codec.cam.encode", "codec");
  static obs::Counter& encode_bytes_in_total =
      obs::MetricsRegistry::global().counter("codec.cam.encode_bytes_in_total");
  encode_bytes_in_total.add(raw_sample.size());
  Bytes out = encode_sample(io::CamSample::parse(raw_sample));
  static obs::Counter& encode_bytes_out_total =
      obs::MetricsRegistry::global().counter(
          "codec.cam.encode_bytes_out_total");
  encode_bytes_out_total.add(out.size());
  return out;
}

TensorF16 CamCodec::reference_preprocess(ByteSpan raw_sample) const {
  const obs::ScopedSpan span("codec.cam.reference_preprocess", "codec");
  static obs::Counter& reference_bytes_in_total =
      obs::MetricsRegistry::global().counter(
          "codec.cam.reference_bytes_in_total");
  reference_bytes_in_total.add(raw_sample.size());
  return reference_preprocess_sample(io::CamSample::parse(raw_sample),
                                     encode_options_.normalize,
                                     decode_options_.layout);
}

}  // namespace sciprep::codec
