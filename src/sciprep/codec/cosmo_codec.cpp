#include "sciprep/codec/cosmo_codec.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <unordered_map>

#include "sciprep/common/error.hpp"
#include "sciprep/guard/cancel.hpp"
#include "sciprep/obs/metrics.hpp"
#include "sciprep/obs/trace.hpp"

namespace sciprep::codec {

namespace {

constexpr std::uint32_t kMagic = 0x31455343u;  // "CSE1"
constexpr std::uint8_t kVersion = 1;
constexpr std::uint8_t kFlagLog1p = 0x01;

constexpr std::uint8_t kStreamRaw = 0;
constexpr std::uint8_t kStreamRle = 1;

constexpr int kR = io::CosmoSample::kRedshifts;

/// A group of 4 redshift counts, hashed for the encoder's group index.
struct Group {
  std::array<std::int32_t, kR> v;
  bool operator==(const Group&) const = default;
};

struct GroupHash {
  std::size_t operator()(const Group& g) const noexcept {
    std::uint64_t h = 0x9E3779B97F4A7C15ULL;
    for (const std::int32_t x : g.v) {
      h ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(x)) +
           0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
    }
    return static_cast<std::size_t>(h);
  }
};

/// One block during encoding: voxel range, group table, key stream.
struct Block {
  std::uint64_t voxel_begin = 0;
  std::uint64_t voxel_end = 0;
  std::vector<Group> table;
  std::vector<std::uint32_t> keys;  // one per voxel in range
};

/// Size of a block's key stream if emitted raw.
std::uint64_t raw_stream_bytes(const Block& b, int key_width) {
  return (b.voxel_end - b.voxel_begin) * static_cast<std::uint64_t>(key_width);
}

struct RleRun {
  std::uint32_t length;
  std::uint32_t key;
};

std::vector<RleRun> rle_runs(const Block& b) {
  std::vector<RleRun> runs;
  std::size_t i = 0;
  while (i < b.keys.size()) {
    std::size_t j = i + 1;
    while (j < b.keys.size() && b.keys[j] == b.keys[i]) ++j;
    runs.push_back({static_cast<std::uint32_t>(j - i), b.keys[i]});
    i = j;
  }
  return runs;
}

std::uint64_t rle_stream_bytes(const std::vector<RleRun>& runs, int key_width) {
  // u32 run count + per run: u32 length + key.
  return 4 + runs.size() * (4ull + static_cast<std::uint64_t>(key_width));
}

/// The fused table transform, in FP32: count -> (optionally log1p).
float transform_count(std::int32_t count, bool log1p) {
  const auto x = static_cast<float>(count);
  return log1p ? std::log1p(x) : x;
}

/// Transform `n` counts, `dst[i]` from `count(i)`, and emit them through the
/// FP16 span convert in stack-sized chunks.
template <class Count>
void emit_counts(Count&& count, std::size_t n, bool log1p, Half* dst) {
  std::array<float, 256> f{};
  for (std::size_t i = 0; i < n; i += f.size()) {
    const std::size_t m = std::min(f.size(), n - i);
    for (std::size_t j = 0; j < m; ++j) {
      f[j] = transform_count(count(i + j), log1p);
    }
    fp32_to_fp16_n(f.data(), dst + i, m);
  }
}

}  // namespace

CosmoCodec::CosmoCodec(CosmoEncodeOptions options) : options_(options) {
  if (options_.max_groups_per_block == 0 ||
      options_.max_groups_per_block > 65536) {
    throw ConfigError(fmt("cosmo codec: max_groups_per_block {} not in 1..65536",
                          options_.max_groups_per_block));
  }
}

Bytes CosmoCodec::encode_sample(const io::CosmoSample& sample) const {
  SCIPREP_ASSERT(sample.counts.size() == sample.value_count());
  if (options_.fuse_log1p) {
    for (const std::int32_t c : sample.counts) {
      if (c < 0) {
        throw ConfigError(
            "cosmo codec: negative counts are incompatible with fused log1p");
      }
    }
  }

  // --- Pass 1: split the volume into blocks of <= max_groups unique groups.
  const std::uint64_t voxels = sample.voxel_count();
  std::vector<Block> blocks;
  {
    Block current;
    current.voxel_begin = 0;
    std::unordered_map<Group, std::uint32_t, GroupHash> index;
    index.reserve(4096);
    for (std::uint64_t v = 0; v < voxels; ++v) {
      Group g;
      std::memcpy(g.v.data(), sample.counts.data() + v * kR,
                  sizeof(std::int32_t) * kR);
      auto it = index.find(g);
      if (it == index.end()) {
        if (current.table.size() >= options_.max_groups_per_block) {
          current.voxel_end = v;
          blocks.push_back(std::move(current));
          current = Block{};
          current.voxel_begin = v;
          index.clear();
        }
        it = index.emplace(g, static_cast<std::uint32_t>(current.table.size()))
                 .first;
        current.table.push_back(g);
      }
      current.keys.push_back(it->second);
    }
    current.voxel_end = voxels;
    blocks.push_back(std::move(current));
  }

  // --- Pass 2: serialize.
  ByteWriter out;
  out.put<std::uint32_t>(kMagic);
  out.put<std::uint8_t>(kVersion);
  out.put<std::uint8_t>(options_.fuse_log1p ? kFlagLog1p : 0);
  out.put<std::uint16_t>(0);  // reserved
  out.put<std::uint32_t>(static_cast<std::uint32_t>(sample.dim));
  for (const float p : sample.params) {
    out.put<float>(p);  // labels are lossless
  }
  out.put<std::uint32_t>(static_cast<std::uint32_t>(blocks.size()));

  for (const Block& b : blocks) {
    const int key_width = b.table.size() <= 256 ? 1 : 2;
    const auto runs = options_.rle ? rle_runs(b) : std::vector<RleRun>{};
    const bool use_rle =
        options_.rle &&
        rle_stream_bytes(runs, key_width) < raw_stream_bytes(b, key_width);

    out.put<std::uint64_t>(b.voxel_begin);
    out.put<std::uint64_t>(b.voxel_end);
    out.put<std::uint32_t>(static_cast<std::uint32_t>(b.table.size()));
    out.put<std::uint8_t>(static_cast<std::uint8_t>(key_width));
    out.put<std::uint8_t>(use_rle ? kStreamRle : kStreamRaw);
    for (const Group& g : b.table) {
      for (const std::int32_t x : g.v) {
        out.put<std::int32_t>(x);
      }
    }
    auto put_key = [&out, key_width](std::uint32_t key) {
      if (key_width == 1) {
        out.put<std::uint8_t>(static_cast<std::uint8_t>(key));
      } else {
        out.put<std::uint16_t>(static_cast<std::uint16_t>(key));
      }
    };
    if (use_rle) {
      out.put<std::uint32_t>(static_cast<std::uint32_t>(runs.size()));
      for (const RleRun& r : runs) {
        out.put<std::uint32_t>(r.length);
        put_key(r.key);
      }
    } else {
      for (const std::uint32_t k : b.keys) {
        put_key(k);
      }
    }
  }
  return std::move(out).take();
}

namespace {

/// One broadcast run of an RLE block, at its absolute voxel position.
struct RleSpan {
  std::uint64_t voxel;
  std::uint32_t length;
  std::uint32_t key;
};

/// Parsed views into an encoded sample (no copies of bulk data).
struct ParsedBlock {
  std::uint64_t voxel_begin = 0;
  std::uint64_t voxel_end = 0;
  std::uint32_t group_count = 0;
  int key_width = 1;
  bool rle = false;
  ByteSpan table;   // group_count * 4 * i32
  ByteSpan stream;  // raw keys or rle runs
  std::vector<RleSpan> runs;  // rle only
};

struct ParsedCosmo {
  int dim = 0;
  bool log1p = false;
  std::array<float, 4> labels{};
  std::vector<ParsedBlock> blocks;
};

std::uint32_t read_key(const std::uint8_t* stream, std::size_t i,
                       int key_width) {
  if (key_width == 1) return stream[i];
  std::uint16_t k;
  std::memcpy(&k, stream + i * 2, 2);
  return k;
}

/// The largest of a raw stream's `n` keys. The fixed-size inner loop lets
/// the compiler vectorize the reduction at the default optimization level.
template <class Key>
std::uint32_t max_raw_key(const std::uint8_t* stream, std::uint64_t n) {
  const auto key = [stream](std::uint64_t i) {
    Key k;
    std::memcpy(&k, stream + i * sizeof(Key), sizeof(Key));
    return k;
  };
  constexpr std::uint64_t kChunk = 64;
  Key m = 0;
  std::uint64_t i = 0;
  for (; i + kChunk <= n; i += kChunk) {
    for (std::uint64_t j = 0; j < kChunk; ++j) m = std::max(m, key(i + j));
  }
  for (; i < n; ++i) m = std::max(m, key(i));
  return m;
}

/// Parse an RLE block's runs and check that they tile [voxel_begin,
/// voxel_end) exactly. Returns the largest key.
std::uint32_t parse_runs(ParsedBlock& b, std::uint32_t run_count) {
  ByteReader in(b.stream);
  b.runs.reserve(run_count);
  std::uint64_t voxel = b.voxel_begin;
  std::uint32_t max_key = 0;
  for (std::uint32_t r = 0; r < run_count; ++r) {
    const auto length = in.get<std::uint32_t>();
    const std::uint32_t key =
        b.key_width == 1 ? in.get<std::uint8_t>() : in.get<std::uint16_t>();
    if (voxel + length > b.voxel_end) {
      throw_format("cosmo codec: RLE overruns block at voxel {}", voxel);
    }
    b.runs.push_back({voxel, length, key});
    voxel += length;
    max_key = std::max(max_key, key);
  }
  if (voxel != b.voxel_end) {
    throw_format("cosmo codec: RLE covers {} of {} voxels", voxel,
                 b.voxel_end);
  }
  return max_key;
}

/// The one validation point of the format: a sample that parses decodes on
/// every schedule without further checks.
ParsedCosmo parse_cosmo(ByteSpan encoded) {
  ByteReader in(encoded);
  if (in.get<std::uint32_t>() != kMagic) {
    throw_format("cosmo codec: bad magic");
  }
  const auto version = in.get<std::uint8_t>();
  if (version != kVersion) {
    throw_format("cosmo codec: unsupported version {}", version);
  }
  ParsedCosmo p;
  p.log1p = (in.get<std::uint8_t>() & kFlagLog1p) != 0;
  in.skip(2);
  p.dim = static_cast<int>(in.get<std::uint32_t>());
  if (p.dim <= 0 || p.dim > 4096) {
    throw_format("cosmo codec: implausible dim {}", p.dim);
  }
  for (auto& l : p.labels) {
    l = in.get<float>();
  }
  const auto nblocks = in.get<std::uint32_t>();
  const std::uint64_t voxels = static_cast<std::uint64_t>(p.dim) * p.dim * p.dim;
  std::uint64_t expect_begin = 0;
  for (std::uint32_t i = 0; i < nblocks; ++i) {
    ParsedBlock b;
    b.voxel_begin = in.get<std::uint64_t>();
    b.voxel_end = in.get<std::uint64_t>();
    if (b.voxel_begin != expect_begin || b.voxel_end <= b.voxel_begin ||
        b.voxel_end > voxels) {
      throw_format("cosmo codec: block {} covers [{}, {}) (expected start {})",
                   i, b.voxel_begin, b.voxel_end, expect_begin);
    }
    expect_begin = b.voxel_end;
    b.group_count = in.get<std::uint32_t>();
    b.key_width = in.get<std::uint8_t>();
    if (b.key_width != 1 && b.key_width != 2) {
      throw_format("cosmo codec: bad key width {}", b.key_width);
    }
    if (b.group_count == 0 ||
        b.group_count > (b.key_width == 1 ? 256u : 65536u)) {
      throw_format("cosmo codec: table size {} exceeds key space", b.group_count);
    }
    const auto mode = in.get<std::uint8_t>();
    b.table = in.get_bytes(static_cast<std::size_t>(b.group_count) * kR *
                           sizeof(std::int32_t));
    std::uint32_t max_key = 0;
    if (mode == kStreamRle) {
      b.rle = true;
      const auto run_count = in.get<std::uint32_t>();
      b.stream = in.get_bytes(static_cast<std::size_t>(run_count) *
                              (4u + static_cast<std::uint32_t>(b.key_width)));
      max_key = parse_runs(b, run_count);
    } else if (mode == kStreamRaw) {
      const std::uint64_t count = b.voxel_end - b.voxel_begin;
      b.stream = in.get_bytes(static_cast<std::size_t>(count) *
                              static_cast<std::size_t>(b.key_width));
      max_key = b.key_width == 1
                    ? max_raw_key<std::uint8_t>(b.stream.data(), count)
                    : max_raw_key<std::uint16_t>(b.stream.data(), count);
    } else {
      throw_format("cosmo codec: bad stream mode {}", mode);
    }
    // One max-reduce per block: every key the schedules gather indexes the
    // table.
    if (max_key >= b.group_count) {
      throw_format("cosmo codec: key {} out of table range {}", max_key,
                   b.group_count);
    }
    p.blocks.push_back(std::move(b));
  }
  if (expect_begin != voxels) {
    throw_format("cosmo codec: blocks cover {} of {} voxels", expect_begin,
                 voxels);
  }
  if (!in.done()) {
    throw_format("cosmo codec: {} trailing bytes", in.remaining());
  }
  return p;
}

/// Reads the i-th little-endian int32 from an encoded table byte stream.
/// The stream sits at an arbitrary offset inside the serialized sample, so a
/// reinterpret_cast'ed array access would be a misaligned load.
std::int32_t load_table_count(const std::uint8_t* table_bytes, std::size_t i) {
  std::int32_t v;
  std::memcpy(&v, table_bytes + i * sizeof(std::int32_t), sizeof(v));
  return v;
}

/// Materialize a block's FP16 table: the fused log1p is applied to the unique
/// groups only — three orders of magnitude fewer values than the volume.
std::vector<Half> build_fp16_table(const ParsedBlock& b, bool log1p) {
  std::vector<Half> table(static_cast<std::size_t>(b.group_count) * kR);
  emit_counts([&](std::size_t i) { return load_table_count(b.table.data(), i); },
              table.size(), log1p, table.data());
  return table;
}

/// The decoded tensor's shape and labels, values sized but not yet written.
TensorF16 cosmo_output(const ParsedCosmo& p) {
  TensorF16 out;
  const auto dim = static_cast<std::uint64_t>(p.dim);
  out.shape = {dim, dim, dim, kR};
  out.values.resize(dim * dim * dim * kR);
  out.float_labels.assign(p.labels.begin(), p.labels.end());
  return out;
}

}  // namespace

TensorF16 CosmoCodec::decode_cpu(ByteSpan encoded) const {
  const obs::ScopedSpan span("codec.cosmo.decode_cpu", "codec");
  // Each counter is bound once (DESIGN §6): the global registry is never
  // destroyed and its reset() keeps every name, so the reference holds.
  static obs::Counter& decode_bytes_in_total =
      obs::MetricsRegistry::global().counter(
          "codec.cosmo.decode_bytes_in_total");
  decode_bytes_in_total.add(encoded.size());
  const ParsedCosmo p = parse_cosmo(encoded);
  TensorF16 out = cosmo_output(p);
  for (const ParsedBlock& b : p.blocks) {
    guard::poll_cancellation();  // cancellation point per block
    const std::vector<Half> table = build_fp16_table(b, p.log1p);
    Half* dst = out.values.data() + b.voxel_begin * kR;
    if (b.rle) {
      for (const RleSpan& run : b.runs) {
        const Half* entry =
            table.data() + static_cast<std::size_t>(run.key) * kR;
        for (std::uint32_t i = 0; i < run.length; ++i) {
          std::memcpy(dst, entry, sizeof(Half) * kR);
          dst += kR;
        }
      }
    } else {
      const std::uint64_t count = b.voxel_end - b.voxel_begin;
      for (std::uint64_t v = 0; v < count; ++v) {
        const std::uint32_t key = read_key(b.stream.data(), v, b.key_width);
        std::memcpy(dst, table.data() + static_cast<std::size_t>(key) * kR,
                    sizeof(Half) * kR);
        dst += kR;
      }
    }
  }
  return out;
}

TensorF16 CosmoCodec::decode_gpu(ByteSpan encoded, sim::SimGpu& gpu) const {
  const obs::ScopedSpan span("codec.cosmo.decode_gpu", "codec");
  static obs::Counter& decode_bytes_in_total =
      obs::MetricsRegistry::global().counter(
          "codec.cosmo.decode_bytes_in_total");
  decode_bytes_in_total.add(encoded.size());
  const ParsedCosmo p = parse_cosmo(encoded);
  TensorF16 out = cosmo_output(p);
  for (const ParsedBlock& b : p.blocks) {
    guard::poll_cancellation();  // cancellation point per block
    // Table construction is itself a small kernel: one lane per table entry.
    std::vector<Half> table(static_cast<std::size_t>(b.group_count) * kR);
    const std::uint8_t* raw_table = b.table.data();
    const std::size_t table_values = table.size();
    gpu.launch((table_values + sim::Warp::kLanes - 1) / sim::Warp::kLanes,
               [&](sim::Warp& warp) {
                 const std::size_t first = warp.id() * sim::Warp::kLanes;
                 std::array<float, sim::Warp::kLanes> f{};
                 warp.lanes([&](int lane) {
                   const std::size_t i = first + static_cast<std::size_t>(lane);
                   if (i >= table_values) return;
                   f[static_cast<std::size_t>(lane)] =
                       transform_count(load_table_count(raw_table, i), p.log1p);
                 });
                 fp32_to_fp16_n(f.data(), table.data() + first,
                                std::min(f.size(), table_values - first));
                 warp.count_read(sim::Warp::kLanes * sizeof(std::int32_t));
                 warp.count_write(sim::Warp::kLanes * sizeof(Half));
               });

    Half* dst = out.values.data() + b.voxel_begin * kR;
    if (b.rle) {
      // Broadcast kernel: the runs were parsed once on the "host" side; each
      // run goes to consecutive warps, and each lockstep op writes 32 voxels
      // of the same table entry (a pure coalesced broadcast).
      gpu.launch(b.runs.size(), [&](sim::Warp& warp) {
        const RleSpan& run = b.runs[warp.id()];
        const Half* entry =
            table.data() + static_cast<std::size_t>(run.key) * kR;
        Half* out_base = out.values.data() + run.voxel * kR;
        std::uint32_t done = 0;
        while (done < run.length) {
          const std::uint32_t batch =
              std::min<std::uint32_t>(sim::Warp::kLanes, run.length - done);
          if (batch < sim::Warp::kLanes) {
            warp.note_divergence();  // partial warp at run tail
          }
          warp.lanes([&](int lane) {
            if (static_cast<std::uint32_t>(lane) >= batch) return;
            std::memcpy(out_base + (done + static_cast<std::uint32_t>(lane)) * kR,
                        entry, sizeof(Half) * kR);
          });
          warp.count_write(batch * sizeof(Half) * kR);
          done += batch;
        }
      });
    } else {
      // Gather kernel: lane v reads key[v], looks up 8 bytes, writes 8 bytes
      // — fully coalesced, no divergence (paper §VI: "no dependencies
      // between threads due to the use of single key width per table").
      const std::uint64_t count = b.voxel_end - b.voxel_begin;
      gpu.launch((count + sim::Warp::kLanes - 1) / sim::Warp::kLanes,
                 [&](sim::Warp& warp) {
                   warp.lanes([&](int lane) {
                     const std::uint64_t v =
                         warp.id() * sim::Warp::kLanes +
                         static_cast<std::uint64_t>(lane);
                     if (v >= count) return;
                     const std::uint32_t key =
                         read_key(b.stream.data(), v, b.key_width);
                     std::memcpy(
                         dst + v * kR,
                         table.data() + static_cast<std::size_t>(key) * kR,
                         sizeof(Half) * kR);
                   });
                   warp.count_read(sim::Warp::kLanes *
                                   (b.key_width + sizeof(Half) * kR));
                   warp.count_write(sim::Warp::kLanes * sizeof(Half) * kR);
                 });
    }
  }
  return out;
}

CosmoEncodedInfo CosmoCodec::inspect(ByteSpan encoded) {
  const ParsedCosmo p = parse_cosmo(encoded);
  CosmoEncodedInfo info;
  info.block_count = static_cast<std::uint32_t>(p.blocks.size());
  for (const ParsedBlock& b : p.blocks) {
    info.table_bytes += b.table.size();
    info.key_bytes += b.stream.size();
    info.total_groups += b.group_count;
    info.rle_blocks += b.rle ? 1 : 0;
  }
  return info;
}

TensorF16 CosmoCodec::reference_preprocess_sample(const io::CosmoSample& sample,
                                                  bool log1p) {
  TensorF16 out;
  const auto dim = static_cast<std::uint64_t>(sample.dim);
  out.shape = {dim, dim, dim, kR};
  out.values.resize(sample.counts.size());
  out.float_labels.assign(sample.params.begin(), sample.params.end());
  // Baseline path: every value of the full 8M-value volume goes through
  // log1p + cast — no unique-value factoring.
  emit_counts([&](std::size_t i) { return sample.counts[i]; },
              sample.counts.size(), log1p, out.values.data());
  return out;
}

Bytes CosmoCodec::encode(ByteSpan raw_sample) const {
  const obs::ScopedSpan span("codec.cosmo.encode", "codec");
  static obs::Counter& encode_bytes_in_total =
      obs::MetricsRegistry::global().counter(
          "codec.cosmo.encode_bytes_in_total");
  encode_bytes_in_total.add(raw_sample.size());
  Bytes out = encode_sample(io::CosmoSample::parse(raw_sample));
  static obs::Counter& encode_bytes_out_total =
      obs::MetricsRegistry::global().counter(
          "codec.cosmo.encode_bytes_out_total");
  encode_bytes_out_total.add(out.size());
  return out;
}

TensorF16 CosmoCodec::reference_preprocess(ByteSpan raw_sample) const {
  const obs::ScopedSpan span("codec.cosmo.reference_preprocess", "codec");
  static obs::Counter& reference_bytes_in_total =
      obs::MetricsRegistry::global().counter(
          "codec.cosmo.reference_bytes_in_total");
  reference_bytes_in_total.add(raw_sample.size());
  return reference_preprocess_sample(io::CosmoSample::parse(raw_sample),
                                     options_.fuse_log1p);
}

}  // namespace sciprep::codec
