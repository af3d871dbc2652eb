#include "sciprep/shard/digest.hpp"

#include "sciprep/common/crc.hpp"
#include "sciprep/common/error.hpp"

namespace sciprep::shard {

namespace {

ByteSpan word_bytes(const std::uint64_t& v) {
  return ByteSpan(reinterpret_cast<const std::uint8_t*>(&v), sizeof(v));
}

}  // namespace

std::uint32_t sample_crc(const codec::TensorF16& tensor, std::uint32_t seed) {
  std::uint32_t crc = crc32c(as_bytes(tensor.shape), seed);
  crc = crc32c(as_bytes(tensor.values), crc);
  crc = crc32c(as_bytes(tensor.float_labels), crc);
  crc = crc32c(as_bytes(tensor.byte_labels), crc);
  return crc;
}

void GlobalStreamDigest::record(std::uint64_t epoch, std::uint64_t position,
                                std::uint32_t crc) {
  auto [it, inserted] = epochs_[epoch].try_emplace(position, crc);
  if (!inserted && it->second != crc) {
    throw_format(
        "shard: global stream diverged at epoch {} position {} — recorded "
        "crc {:08x}, re-delivered crc {:08x}",
        epoch, position, it->second, crc);
  }
}

std::size_t GlobalStreamDigest::recorded(std::uint64_t epoch) const {
  const auto it = epochs_.find(epoch);
  return it == epochs_.end() ? 0 : it->second.size();
}

std::uint32_t GlobalStreamDigest::epoch_digest(std::uint64_t epoch) const {
  const auto it = epochs_.find(epoch);
  if (it == epochs_.end()) return 0;
  std::uint32_t crc = 0;
  for (const auto& [position, sample] : it->second) {
    crc = crc32c(word_bytes(position), crc);
    const std::uint64_t widened = sample;
    crc = crc32c(word_bytes(widened), crc);
  }
  return crc;
}

std::uint32_t GlobalStreamDigest::stream_digest() const {
  std::uint32_t crc = 0;
  for (const auto& [epoch, entries] : epochs_) {
    (void)entries;
    crc = crc32c(word_bytes(epoch), crc);
    const std::uint64_t widened = epoch_digest(epoch);
    crc = crc32c(word_bytes(widened), crc);
  }
  return crc;
}

const std::map<std::uint64_t, std::uint32_t>& GlobalStreamDigest::entries(
    std::uint64_t epoch) const {
  static const std::map<std::uint64_t, std::uint32_t> kEmpty;
  const auto it = epochs_.find(epoch);
  return it == epochs_.end() ? kEmpty : it->second;
}

}  // namespace sciprep::shard
