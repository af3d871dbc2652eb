// Binary codec for obs::MetricsSnapshot, carried by wire STATS frames.
//
// Fleet federation ships per-tenant metric state over the wire as snapshot
// *deltas* (obs::snapshot_delta): the server diffs the tenant registry
// against what it last sent, the client accumulates deltas back into running
// totals (obs::snapshot_accumulate), and the two views reconcile exactly
// because the algebra is exact.
//
// The byte format is the usual little-endian field list over
// ByteWriter/ByteReader with length-prefixed sections, so a hostile or
// truncated payload fails as a typed FormatError, never as an overread.
#pragma once

#include <cstdint>

#include "sciprep/common/buffer.hpp"
#include "sciprep/obs/metrics.hpp"

namespace sciprep::flow {

/// Version byte leading every encoded snapshot; bump on layout change.
inline constexpr std::uint8_t kSnapshotCodecVersion = 1;

/// Cap on the declared entry count of any one section, so a corrupt header
/// cannot make decode_snapshot() reserve unbounded memory.
inline constexpr std::uint32_t kMaxSnapshotEntries = 1u << 20;

void encode_snapshot_into(ByteWriter& w, const obs::MetricsSnapshot& snap);
[[nodiscard]] Bytes encode_snapshot(const obs::MetricsSnapshot& snap);

/// Decode one snapshot from the reader's current position (leaves the reader
/// after the snapshot, so it can be embedded in a larger payload). Throws
/// FormatError on truncation, bad version, or a lying entry count.
[[nodiscard]] obs::MetricsSnapshot decode_snapshot(ByteReader& r);
[[nodiscard]] obs::MetricsSnapshot decode_snapshot(ByteSpan data);

}  // namespace sciprep::flow
