// CosmoFlow lookup-table codec (paper §V.B).
//
// Encoding exploits two measured properties of the dataset:
//   1. each sample has only a few hundred unique particle counts, and
//   2. the 4 redshift values of a voxel are highly coupled — the number of
//      unique *groups of 4* is tens of thousands, indexable by 16-bit keys.
// The encoder builds a per-sample (per-block for larger volumes) lookup
// table of unique groups and replaces each voxel with a 1- or 2-byte key.
// Runs of identical keys (empty space) get a run-length "broadcast" stream.
//
// The decode step fuses the benchmark's preprocessing: the log1p operator is
// applied to the *table* (10^3 fewer values than the volume) and the table is
// materialized directly in FP16, so the scatter writes feed the
// mixed-precision model with zero further work. Casting counts through
// log1p to FP16 is the only precision change; the paper calls this encoding
// "not lossy when casting to FP16" because every voxel with equal counts maps
// to the identical FP16 value.
#pragma once

#include <cstdint>

#include "sciprep/codec/codec.hpp"
#include "sciprep/io/samples.hpp"

namespace sciprep::codec {

struct CosmoEncodeOptions {
  bool fuse_log1p = true;  // decoder applies log1p to table entries
  bool rle = true;         // allow the broadcast (run-length) key stream
  /// Maximum lookup-table entries per block. Blocks split when a volume has
  /// more unique groups than one 16-bit key space (paper: "For larger than
  /// 128^3 decompositions, multiple lookup tables are required").
  std::uint32_t max_groups_per_block = 65536;
};

/// Structural description of an encoded sample, for analysis benches.
struct CosmoEncodedInfo {
  std::uint32_t block_count = 0;
  std::uint64_t table_bytes = 0;
  std::uint64_t key_bytes = 0;
  std::uint64_t total_groups = 0;  // sum of per-block table sizes
  std::uint64_t rle_blocks = 0;
};

class CosmoCodec final : public SampleCodec {
 public:
  explicit CosmoCodec(CosmoEncodeOptions options = {});

  // Typed API ---------------------------------------------------------------
  [[nodiscard]] Bytes encode_sample(const io::CosmoSample& sample) const;
  /// Parse and validate the encoded sample; no decode work.
  [[nodiscard]] static CosmoEncodedInfo inspect(ByteSpan encoded);

  /// Baseline preprocessing: log1p + FP16 cast over the full volume, as the
  /// unmodified TensorFlow input pipeline performs it on the CPU.
  [[nodiscard]] static TensorF16 reference_preprocess_sample(
      const io::CosmoSample& sample, bool log1p = true);

  // SampleCodec -------------------------------------------------------------
  [[nodiscard]] std::string name() const override { return "cosmo-lut"; }
  [[nodiscard]] Bytes encode(ByteSpan raw_sample) const override;
  [[nodiscard]] TensorF16 decode_cpu(ByteSpan encoded) const override;
  [[nodiscard]] TensorF16 decode_gpu(ByteSpan encoded,
                                     sim::SimGpu& gpu) const override;
  [[nodiscard]] TensorF16 reference_preprocess(
      ByteSpan raw_sample) const override;

 private:
  CosmoEncodeOptions options_;
};

}  // namespace sciprep::codec
