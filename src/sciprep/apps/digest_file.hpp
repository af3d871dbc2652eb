// DigestFile — the trainer's record of what a run delivered, one line per
// delivered unit plus a footer of final counters:
//
//   B <epoch> <index> <crc>      one delivered batch (unsharded run)
//   S <epoch> <position> <crc>   one sample of the merged global stream (shard)
//   U <epoch> <position> <crc>   one sample of a tenant's stream (serve, wire)
//   T ...                        the footer
//
// Two runs delivered the same bytes iff their files check clean against each
// other. The check keys each line by its "<tag> <epoch> <index>" prefix, so
// it names the first unit that diverged, and it accepts a suffix of the
// expected lines for a run that resumed from a checkpoint.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sciprep/shard/digest.hpp"

namespace sciprep::apps {

struct DigestFile {
  std::vector<std::string> lines;  // "<tag> <epoch> <index> <crc>"
  std::string footer;              // "T ..."

  /// Append one "<tag> <epoch> <index> <crc>" line.
  void add(const char* tag, std::uint64_t epoch, std::uint64_t index,
           std::uint32_t crc);

  /// Append every entry of `digest` for epochs [0, epochs), ascending by
  /// (epoch, position), as `tag` lines.
  void add_stream(const char* tag, const shard::GlobalStreamDigest& digest,
                  int epochs);

  /// Create/truncate `path` with the lines, then the footer, each
  /// newline-terminated. Throws IoError.
  void write(const std::string& path) const;

  /// Parse a file written by write(). Throws IoError if it cannot be read.
  static DigestFile read(const std::string& path);

  /// Compare this (produced) file against `expected`. Every produced line
  /// must equal the expected line with the same key, and the footers must
  /// be equal. The key sets must be equal too, unless `resumed`: a run
  /// restarted from a checkpoint produces only a suffix of the lines.
  /// Returns one message per violation; empty = the files agree.
  [[nodiscard]] std::vector<std::string> check(const DigestFile& expected,
                                               bool resumed) const;
};

}  // namespace sciprep::apps
