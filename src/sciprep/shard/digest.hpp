// GlobalStreamDigest — position-keyed content digest of the merged global
// sample stream (sciprep::shard).
//
// Every delivered sample is recorded as (epoch, global position, content
// CRC). Recording is idempotent-with-verification: the same position may be
// delivered twice across a rank failure (the dead rank delivered it after
// its last checkpoint, then a survivor re-delivered it from the checkpoint
// cursor), and that is fine exactly when both deliveries carry identical
// bytes — a mismatch means the reproducibility contract broke and throws
// immediately, naming the position. The merged digest chains the per-sample
// CRCs over *sorted present positions*, so it is independent of rank count,
// delivery interleaving, and duplicate re-deliveries, and skip-aware:
// policy-quarantined samples simply have no entry, and two runs agree iff
// they skipped the same positions and delivered identical bytes everywhere
// else.
#pragma once

#include <cstdint>
#include <map>

#include "sciprep/codec/codec.hpp"

namespace sciprep::shard {

/// Content CRC of one decoded sample: shape, values, and both label kinds,
/// chained onto `seed`. Folding it over a batch's samples gives the
/// trainer's per-batch digest.
[[nodiscard]] std::uint32_t sample_crc(const codec::TensorF16& tensor,
                                       std::uint32_t seed = 0);

class GlobalStreamDigest {
 public:
  /// Record one delivered sample. Re-recording a position with the same CRC
  /// is a no-op (duplicate re-delivery across a failure); a different CRC
  /// throws FormatError — the global stream stopped being reproducible.
  void record(std::uint64_t epoch, std::uint64_t position, std::uint32_t crc);

  /// Positions recorded for `epoch` (delivered, not skipped).
  [[nodiscard]] std::size_t recorded(std::uint64_t epoch) const;

  /// CRC chain over `epoch`'s entries in ascending position order; 0 for an
  /// unknown epoch.
  [[nodiscard]] std::uint32_t epoch_digest(std::uint64_t epoch) const;

  /// CRC chain over every epoch's digest, ascending — one number for the
  /// whole run's merged stream.
  [[nodiscard]] std::uint32_t stream_digest() const;

  /// All entries of `epoch`, ascending by position (for digest files).
  [[nodiscard]] const std::map<std::uint64_t, std::uint32_t>& entries(
      std::uint64_t epoch) const;

 private:
  std::map<std::uint64_t, std::map<std::uint64_t, std::uint32_t>> epochs_;
};

}  // namespace sciprep::shard
