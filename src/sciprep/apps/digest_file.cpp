#include "sciprep/apps/digest_file.hpp"

#include <map>
#include <sstream>
#include <string_view>

#include "sciprep/common/buffer.hpp"
#include "sciprep/common/format.hpp"
#include "sciprep/common/sysio.hpp"

namespace sciprep::apps {

namespace {

/// "<tag> <epoch> <index>": everything before the third space.
std::string_view key_of(std::string_view line) {
  std::size_t end = std::string_view::npos;  // npos + 1 wraps to 0
  for (int field = 0; field < 3; ++field) {
    end = line.find(' ', end + 1);
    if (end == std::string_view::npos) break;
  }
  return line.substr(0, end);
}

}  // namespace

void DigestFile::add(const char* tag, std::uint64_t epoch, std::uint64_t index,
                     std::uint32_t crc) {
  lines.push_back(fmt("{} {} {} {:08x}", tag, epoch, index, crc));
}

void DigestFile::add_stream(const char* tag,
                            const shard::GlobalStreamDigest& digest,
                            int epochs) {
  for (int epoch = 0; epoch < epochs; ++epoch) {
    const auto e = static_cast<std::uint64_t>(epoch);
    for (const auto& [position, crc] : digest.entries(e)) {
      add(tag, e, position, crc);
    }
  }
}

void DigestFile::write(const std::string& path) const {
  std::string text;
  for (const std::string& line : lines) text += line + '\n';
  text += footer + '\n';
  sysio::write_file(path, as_bytes(text));
}

DigestFile DigestFile::read(const std::string& path) {
  const Bytes bytes = sysio::read_file(path);
  std::istringstream in(std::string(bytes.begin(), bytes.end()));
  DigestFile file;
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("T ", 0) == 0) {
      file.footer = line;
    } else if (!line.empty()) {
      file.lines.push_back(line);
    }
  }
  return file;
}

std::vector<std::string> DigestFile::check(const DigestFile& expected,
                                           bool resumed) const {
  std::map<std::string_view, std::string_view> want;
  for (const std::string& line : expected.lines) {
    want.emplace(key_of(line), line);
  }
  std::vector<std::string> failures;
  std::size_t found = 0;
  for (const std::string& line : lines) {
    const auto it = want.find(key_of(line));
    if (it == want.end()) {
      failures.push_back(fmt("unexpected line '{}'", key_of(line)));
      continue;
    }
    ++found;
    if (it->second != line) {
      failures.push_back(fmt("produced '{}', expected '{}'", line, it->second));
    }
  }
  if (!resumed && found < want.size()) {
    failures.push_back(fmt("{} expected line(s) never produced",
                           want.size() - found));
  }
  if (footer != expected.footer) {
    failures.push_back(fmt("footers differ: produced '{}', expected '{}'",
                           footer, expected.footer));
  }
  return failures;
}

}  // namespace sciprep::apps
