#include "sciprep/guard/snapshot.hpp"

#include <chrono>
#include <filesystem>

#include "sciprep/common/crc.hpp"
#include "sciprep/common/error.hpp"
#include "sciprep/common/sysio.hpp"
#include "sciprep/io/tfrecord.hpp"

namespace sciprep::guard {

namespace {

// magic + version + payload_len; the payload CRC trails the payload.
constexpr std::size_t kHeaderBytes = 12;

void put_id_list(ByteWriter& w, const std::vector<std::uint64_t>& ids) {
  w.put<std::uint64_t>(ids.size());
  for (const std::uint64_t id : ids) w.put<std::uint64_t>(id);
}

std::vector<std::uint64_t> get_id_list(ByteReader& r) {
  const auto n = r.get<std::uint64_t>();
  if (n > r.remaining() / sizeof(std::uint64_t)) {
    throw_format(
        "snapshot: id list declares {} entries but only {} payload bytes "
        "remain",
        n, r.remaining());
  }
  std::vector<std::uint64_t> ids(static_cast<std::size_t>(n));
  for (auto& id : ids) id = r.get<std::uint64_t>();
  return ids;
}

}  // namespace

Bytes Snapshot::serialize() const {
  ByteWriter payload;
  payload.put<std::uint64_t>(config_fingerprint);
  payload.put<std::uint64_t>(epoch);
  payload.put<std::uint64_t>(cursor);
  payload.put<std::uint64_t>(batch_index);
  payload.put<std::uint64_t>(recovery_events);
  payload.put<std::uint64_t>(samples);
  payload.put<std::uint64_t>(batches);
  payload.put<std::uint64_t>(bytes_at_rest);
  payload.put<std::uint64_t>(samples_skipped);
  payload.put<std::uint64_t>(fallbacks);
  payload.put<std::uint8_t>(degraded ? 1 : 0);
  put_id_list(payload, quarantine);
  put_id_list(payload, epoch_quarantine);

  ByteWriter out;
  out.put<std::uint32_t>(kMagic);
  out.put<std::uint32_t>(kVersion);
  out.put<std::uint32_t>(static_cast<std::uint32_t>(payload.size()));
  const std::uint32_t crc = crc32c(ByteSpan(payload.bytes()));
  out.put_bytes(ByteSpan(payload.bytes()));
  out.put<std::uint32_t>(crc);
  return std::move(out).take();
}

Snapshot Snapshot::parse(ByteSpan data) {
  if (data.size() < kHeaderBytes) {
    throw TruncatedError(
        fmt("snapshot: {} bytes is too short for the {}-byte header",
            data.size(), kHeaderBytes),
        data.size());
  }
  ByteReader header(data);
  const auto magic = header.get<std::uint32_t>();
  if (magic != kMagic) {
    throw_format("snapshot: bad magic {:08x} (expected {:08x})", magic,
                 kMagic);
  }
  const auto version = header.get<std::uint32_t>();
  if (version != kVersion) {
    throw_format("snapshot: unsupported version {} (this build reads {})",
                 version, kVersion);
  }
  const auto payload_len = header.get<std::uint32_t>();
  const std::size_t framed = kHeaderBytes + payload_len + sizeof(std::uint32_t);
  if (payload_len > data.size() - kHeaderBytes ||
      data.size() < framed) {
    throw TruncatedError(
        fmt("snapshot: header declares a {}-byte payload but only {} bytes "
            "follow it",
            payload_len, data.size() - kHeaderBytes),
        data.size());
  }
  if (data.size() != framed) {
    throw_format("snapshot: {} trailing bytes after the framed record",
                 data.size() - framed);
  }
  const ByteSpan payload = data.subspan(kHeaderBytes, payload_len);
  ByteReader tail(data.subspan(kHeaderBytes + payload_len));
  const auto stored_crc = tail.get<std::uint32_t>();
  const std::uint32_t actual_crc = crc32c(payload);
  if (stored_crc != actual_crc) {
    throw_format("snapshot: payload CRC mismatch (stored {:08x}, computed "
                 "{:08x})",
                 stored_crc, actual_crc);
  }

  ByteReader r(payload);
  Snapshot s;
  s.config_fingerprint = r.get<std::uint64_t>();
  s.epoch = r.get<std::uint64_t>();
  s.cursor = r.get<std::uint64_t>();
  s.batch_index = r.get<std::uint64_t>();
  s.recovery_events = r.get<std::uint64_t>();
  s.samples = r.get<std::uint64_t>();
  s.batches = r.get<std::uint64_t>();
  s.bytes_at_rest = r.get<std::uint64_t>();
  s.samples_skipped = r.get<std::uint64_t>();
  s.fallbacks = r.get<std::uint64_t>();
  s.degraded = r.get<std::uint8_t>() != 0;
  s.quarantine = get_id_list(r);
  s.epoch_quarantine = get_id_list(r);
  if (!r.done()) {
    throw_format("snapshot: {} unparsed bytes at the end of the payload",
                 r.remaining());
  }
  return s;
}

void write_snapshot(const std::string& path, const Snapshot& snapshot) {
  sysio::write_file_atomic(path, ByteSpan(snapshot.serialize()));
}

Snapshot read_snapshot(const std::string& path) {
  return Snapshot::parse(ByteSpan(io::read_file(path)));
}

std::string rank_snapshot_path(const std::string& dir, int rank) {
  return fmt("{}/rank-{}.ckpt", dir, rank);
}

void write_rank_snapshot(const std::string& dir, int rank,
                         const Snapshot& snapshot) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    throw IoError(fmt("snapshot: cannot create checkpoint dir '{}': {}", dir,
                      ec.message()));
  }
  write_snapshot(rank_snapshot_path(dir, rank), snapshot);
}

Snapshot read_rank_snapshot(const std::string& dir, int rank) {
  return read_snapshot(rank_snapshot_path(dir, rank));
}

std::vector<Snapshot> read_coordinated(const std::string& dir, int world) {
  if (world < 1) {
    throw ConfigError(fmt("snapshot: world size {} must be >= 1", world));
  }
  std::vector<Snapshot> set;
  set.reserve(static_cast<std::size_t>(world));
  for (int rank = 0; rank < world; ++rank) {
    set.push_back(read_rank_snapshot(dir, rank));
    if (set.back().epoch != set.front().epoch) {
      throw ConfigError(
          fmt("snapshot: coordinated checkpoint in '{}' is torn — rank {} is "
              "at epoch {} but rank 0 is at epoch {}",
              dir, rank, set.back().epoch, set.front().epoch));
    }
  }
  return set;
}

Checkpointer::Checkpointer(std::string path, std::uint64_t every_n_batches,
                           obs::MetricsRegistry* metrics)
    : path_(std::move(path)), every_(every_n_batches) {
  obs::MetricsRegistry& registry =
      metrics != nullptr ? *metrics : obs::MetricsRegistry::global();
  written_ = &registry.counter("guard.checkpoints_written_total");
  write_seconds_ = &registry.histogram("guard.checkpoint_write_seconds");
}

void Checkpointer::write(const Snapshot& snapshot) {
  const auto t0 = std::chrono::steady_clock::now();
  write_snapshot(path_, snapshot);
  written_->add(1);
  write_seconds_->record(
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count());
}

}  // namespace sciprep::guard
