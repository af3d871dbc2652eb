// DeepCAM differential floating-point codec (paper §V.A, Figure 4).
//
// Climate images vary smoothly along x (longitude) except at extreme-weather
// phenomena. The encoder processes each (channel, row) line independently:
//
//   * CONSTANT lines (all values identical) store one FP32 value.
//   * SMOOTH lines are split into segments. A segment stores its head value
//     ("pivot", FP32) and one 8-bit code per following value describing the
//     difference from its left neighbour: 1 sign bit, 3-bit exponent offset
//     from the segment's minimum exponent, 4-bit mantissa. The per-segment
//     minimum exponent makes the exponent interpretation local, which is how
//     the scheme handles near-denormal magnitudes. Quantizing the deltas is
//     lossy — it "removes noise resulting from sensor measurement of smooth
//     areas" — and the encoder tracks the reconstruction so errors do not
//     accumulate along the line.
//   * ABRUPT lines (too many segments, or the encoding would not save space)
//     are stored raw as FP16 — they "potentially carry interesting climate
//     phenomena" and are not worth risking.
//
// A per-line offset table precedes the payload, so every line decodes
// independently — the property that makes the GPU implementation possible.
// Decoding fuses the benchmark's preprocessing: per-channel normalization
// (stored at encode time) is applied before the FP16 emit, and the output
// layout (CHW or HWC) is chosen at decode time, fusing the data transpose
// with decompression. Labels are compressed losslessly (DEFLATE).
#pragma once

#include <cstdint>

#include "sciprep/codec/codec.hpp"
#include "sciprep/io/samples.hpp"

namespace sciprep::codec {

/// Output tensor layout; transpose is fused into the decode scatter.
enum class CamLayout { kCHW, kHWC };

struct CamEncodeOptions {
  /// Apply (v - mean) / std per channel during decode, with the statistics
  /// computed at encode time and stored in the header. Required for FP16
  /// output when channels live at 1e5-scale magnitudes.
  bool normalize = true;
  /// Maximum values covered by one segment (bounds the error horizon and the
  /// serial run a GPU warp must walk).
  int max_segment_length = 256;
};

struct CamDecodeOptions {
  CamLayout layout = CamLayout::kCHW;
};

/// Per-line encoding mode counters, for analysis benches.
struct CamEncodedInfo {
  std::uint64_t constant_lines = 0;
  std::uint64_t raw_lines = 0;
  std::uint64_t delta_lines = 0;
  std::uint64_t segments = 0;
  std::uint64_t payload_bytes = 0;
};

class CamCodec final : public SampleCodec {
 public:
  explicit CamCodec(CamEncodeOptions encode_options = {},
                    CamDecodeOptions decode_options = {});

  // Typed API ---------------------------------------------------------------
  [[nodiscard]] Bytes encode_sample(const io::CamSample& sample) const;
  [[nodiscard]] static CamEncodedInfo inspect(ByteSpan encoded);

  /// Baseline preprocessing: FP32 image -> per-channel normalize -> FP16,
  /// all on the CPU over the full image, as the unmodified PyTorch data
  /// loader does. Uses the same statistics convention as the codec
  /// (per-sample mean/std) so convergence comparisons are apples-to-apples.
  [[nodiscard]] static TensorF16 reference_preprocess_sample(
      const io::CamSample& sample, bool normalize = true,
      CamLayout layout = CamLayout::kCHW);

  // SampleCodec -------------------------------------------------------------
  [[nodiscard]] std::string name() const override { return "cam-delta"; }
  [[nodiscard]] Bytes encode(ByteSpan raw_sample) const override;
  [[nodiscard]] TensorF16 decode_cpu(ByteSpan encoded) const override;
  [[nodiscard]] TensorF16 decode_gpu(ByteSpan encoded,
                                     sim::SimGpu& gpu) const override;
  [[nodiscard]] TensorF16 reference_preprocess(
      ByteSpan raw_sample) const override;

 private:
  CamEncodeOptions encode_options_;
  CamDecodeOptions decode_options_;
};

}  // namespace sciprep::codec
