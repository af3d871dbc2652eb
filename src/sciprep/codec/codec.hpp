// Codec plugin API — the integration surface of the paper's contribution.
//
// A SampleCodec turns a raw on-disk sample (serialized CosmoSample /
// CamSample) into a compact encoded form, and decodes that form directly into
// the FP16 tensor the mixed-precision training step consumes — with the
// domain preprocessing (log1p, normalization, layout transpose) fused into
// the decode, on either the CPU or the (simulated) GPU. The pipeline module
// places decode work by Placement, exactly like a DALI operator placement.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sciprep/common/buffer.hpp"
#include "sciprep/common/fp16.hpp"
#include "sciprep/sim/simgpu.hpp"

namespace sciprep::codec {

/// Where a decode runs (DALI operator placement).
enum class Placement { kCpu, kGpu };

/// The decoded, preprocessed training input: an FP16 tensor plus the sample's
/// labels (always lossless).
struct TensorF16 {
  std::vector<std::uint64_t> shape;
  std::vector<Half> values;
  std::vector<float> float_labels;        // CosmoFlow: 4 cosmological params
  std::vector<std::uint8_t> byte_labels;  // DeepCAM: segmentation mask

  [[nodiscard]] std::size_t value_count() const noexcept {
    return values.size();
  }
};

/// Abstract encoder/decoder plugin.
class SampleCodec {
 public:
  virtual ~SampleCodec() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Encode a raw serialized sample into the codec's compact format.
  [[nodiscard]] virtual Bytes encode(ByteSpan raw_sample) const = 0;

  /// Decode + fused preprocessing on the host CPU.
  [[nodiscard]] virtual TensorF16 decode_cpu(ByteSpan encoded) const = 0;

  /// Decode + fused preprocessing as a warp kernel on `gpu`.
  [[nodiscard]] virtual TensorF16 decode_gpu(ByteSpan encoded,
                                             sim::SimGpu& gpu) const = 0;

  /// Decode the *baseline* path: parse the raw sample and apply the same
  /// preprocessing on the CPU without the codec (what the unmodified
  /// benchmark data loader does). Used for baseline measurements and
  /// convergence comparisons.
  [[nodiscard]] virtual TensorF16 reference_preprocess(
      ByteSpan raw_sample) const = 0;
};

/// Fraction of values whose decoded result deviates from `reference` by more
/// than `rel_threshold` relative error (the paper's §V.A quality metric:
/// "roughly 3% of the values with larger than 10% error").
double fraction_above_rel_error(std::span<const float> reference,
                                std::span<const Half> decoded,
                                double rel_threshold = 0.10);

}  // namespace sciprep::codec
