#include "sciprep/obs/resource.hpp"

#include <cstdio>
#include <cstring>

#include <sys/resource.h>
#include <unistd.h>

#include "sciprep/common/error.hpp"
#include "sciprep/common/format.hpp"
#include "sciprep/common/sysio.hpp"
#include "sciprep/obs/json.hpp"

namespace sciprep::obs {

std::string ResourceSample::to_json() const {
  return fmt(
      "{{\"ok\":{},\"cpu_utime_seconds\":{},\"cpu_stime_seconds\":{},"
      "\"rss_bytes\":{},\"peak_rss_bytes\":{},\"minor_faults\":{},"
      "\"major_faults\":{},\"ctx_voluntary\":{},\"ctx_involuntary\":{},"
      "\"io_read_bytes\":{},\"io_write_bytes\":{},\"threads\":{}}}",
      ok, json_number(cpu_utime_seconds),
      json_number(cpu_stime_seconds), rss_bytes, peak_rss_bytes,
      minor_faults, major_faults, ctx_voluntary, ctx_involuntary,
      io_read_bytes, io_write_bytes, threads);
}

ResourceSampler::ResourceSampler(MetricsRegistry* registry)
    : registry_(registry != nullptr ? registry
                                    : &MetricsRegistry::global()) {}

namespace {

/// Read a whole small procfs file into `buf`; returns false when the file is
/// unavailable (non-Linux host, restricted /proc/self/io permissions).
bool slurp(const char* path, std::string& buf) {
  try {
    const Bytes data = sysio::read_file(path);
    buf.assign(data.begin(), data.end());
  } catch (const IoError&) {
    return false;
  }
  return !buf.empty();
}

/// "VmRSS:   12345 kB" -> 12345 * 1024; 0 when the key is absent.
std::uint64_t status_kb(const std::string& status, const char* key) {
  const std::size_t at = status.find(key);
  if (at == std::string::npos) return 0;
  const char* p = status.c_str() + at + std::strlen(key);
  return std::strtoull(p, nullptr, 10) * 1024;
}

/// "read_bytes: 12345" -> 12345; 0 when absent.
std::uint64_t io_field(const std::string& io, const char* key) {
  const std::size_t at = io.find(key);
  if (at == std::string::npos) return 0;
  const char* p = io.c_str() + at + std::strlen(key);
  return std::strtoull(p, nullptr, 10);
}

}  // namespace

ResourceSample ResourceSampler::sample() {
  ResourceSample s;

  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) == 0) {
    s.ok = true;
    s.cpu_utime_seconds = static_cast<double>(usage.ru_utime.tv_sec) +
                          static_cast<double>(usage.ru_utime.tv_usec) / 1e6;
    s.cpu_stime_seconds = static_cast<double>(usage.ru_stime.tv_sec) +
                          static_cast<double>(usage.ru_stime.tv_usec) / 1e6;
    // ru_maxrss is KiB on Linux; /proc VmHWM (below) overrides when present.
    s.peak_rss_bytes = static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;
    s.minor_faults = static_cast<std::uint64_t>(usage.ru_minflt);
    s.major_faults = static_cast<std::uint64_t>(usage.ru_majflt);
    s.ctx_voluntary = static_cast<std::uint64_t>(usage.ru_nvcsw);
    s.ctx_involuntary = static_cast<std::uint64_t>(usage.ru_nivcsw);
  }

  std::string buf;
  if (slurp("/proc/self/status", buf)) {
    s.ok = true;
    s.rss_bytes = status_kb(buf, "VmRSS:");
    const std::uint64_t hwm = status_kb(buf, "VmHWM:");
    if (hwm > 0) s.peak_rss_bytes = hwm;
  }
  // The peak can never read below the level (they come from two sources and
  // procfs rounds to KiB; clamp so consumers can rely on the invariant).
  if (s.peak_rss_bytes < s.rss_bytes) s.peak_rss_bytes = s.rss_bytes;

  if (slurp("/proc/self/io", buf)) {
    s.io_read_bytes = io_field(buf, "read_bytes:");
    s.io_write_bytes = io_field(buf, "write_bytes:");
  }

  if (slurp("/proc/self/stat", buf)) {
    // Field 20 (num_threads), counting from 1, after the parenthesized comm
    // which may itself contain spaces — scan from the *last* ')'.
    const std::size_t close = buf.rfind(')');
    if (close != std::string::npos) {
      const char* p = buf.c_str() + close + 1;
      int field = 2;  // the token after ')' is field 3 (state)
      for (const char* q = p; *q != '\0' && field < 20; ++q) {
        if (*q == ' ') {
          ++field;
          if (field == 20) {
            s.threads = std::strtoull(q + 1, nullptr, 10);
          }
        }
      }
    }
  }
  return s;
}

ResourceSample ResourceSampler::publish() {
  const ResourceSample s = sample();
  if (!s.ok) return s;
  auto set = [&](const char* name, std::uint64_t v) {
    registry_->gauge(name).set(static_cast<std::int64_t>(v));
  };
  set("proc.cpu_utime_ms",
      static_cast<std::uint64_t>(s.cpu_utime_seconds * 1e3));
  set("proc.cpu_stime_ms",
      static_cast<std::uint64_t>(s.cpu_stime_seconds * 1e3));
  set("proc.rss_bytes", s.rss_bytes);
  set("proc.rss_peak_bytes", s.peak_rss_bytes);
  set("proc.minor_faults_total", s.minor_faults);
  set("proc.major_faults_total", s.major_faults);
  set("proc.ctx_voluntary_total", s.ctx_voluntary);
  set("proc.ctx_involuntary_total", s.ctx_involuntary);
  set("proc.io_read_bytes", s.io_read_bytes);
  set("proc.io_write_bytes", s.io_write_bytes);
  set("proc.threads", s.threads);
  return s;
}

std::function<void()> ResourceSampler::exporter_hook() {
  return [this] { publish(); };
}

}  // namespace sciprep::obs
