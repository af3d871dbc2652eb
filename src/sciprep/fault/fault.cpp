#include "sciprep/fault/fault.hpp"

#include <algorithm>

#include "sciprep/common/error.hpp"
#include "sciprep/common/rng.hpp"
#include "sciprep/guard/cancel.hpp"

namespace sciprep::fault {

namespace {

// Purpose tags keep the per-operation draws independent: the transient
// decision for an op must not correlate with its corruption decision.
constexpr std::uint64_t kPurposeTransient = 0;
constexpr std::uint64_t kPurposeCorrupt = 1;
constexpr std::uint64_t kPurposeTruncate = 2;
constexpr std::uint64_t kPurposeDelay = 3;
constexpr std::uint64_t kPurposeCorruptBit = 4;
constexpr std::uint64_t kPurposeTruncateLen = 5;

std::atomic<Injector*> g_global{nullptr};

std::size_t index_of(Site site) {
  const int i = static_cast<int>(site);
  SCIPREP_ASSERT(i >= 0 && i < kSiteCount);
  return static_cast<std::size_t>(i);
}

}  // namespace

const char* site_name(Site site) noexcept {
  switch (site) {
    case Site::kIoRead:
      return "io.read";
    case Site::kTfrecordPayloadCrc:
      return "tfrecord.payload_crc";
    case Site::kH5ChunkCrc:
      return "h5lite.chunk_crc";
    case Site::kCodecDecode:
      return "codec.decode";
    case Site::kGpuLaunch:
      return "gpu.launch";
    case Site::kRankHeartbeat:
      return "rank.heartbeat";
    case Site::kRankCrash:
      return "rank.crash";
    case Site::kWireFrameCrc:
      return "wire.frame_crc";
    case Site::kWireConnDrop:
      return "wire.conn_drop";
  }
  return "?";
}

const char* event_kind_name(EventKind kind) noexcept {
  switch (kind) {
    case EventKind::kRetry:
      return "retry";
    case EventKind::kRetryExhausted:
      return "retry_exhausted";
    case EventKind::kSkipSample:
      return "skip_sample";
    case EventKind::kFallback:
      return "fallback";
    case EventKind::kBudgetExhausted:
      return "budget_exhausted";
    case EventKind::kDeadlineExpired:
      return "deadline_expired";
    case EventKind::kResumeReject:
      return "resume_reject";
    case EventKind::kRankLost:
      return "rank_lost";
    case EventKind::kReshard:
      return "reshard";
    case EventKind::kTenantLost:
      return "tenant_lost";
    case EventKind::kTenantEvicted:
      return "tenant_evicted";
    case EventKind::kSessionShed:
      return "session_shed";
    case EventKind::kWireFault:
      return "wire_fault";
  }
  return "?";
}

Injector::Injector(std::uint64_t seed, obs::MetricsRegistry* metrics)
    : seed_(seed) {
  obs::MetricsRegistry& registry =
      metrics != nullptr ? *metrics : obs::MetricsRegistry::global();
  injected_ = &registry.counter("fault.injected_total");
  for (int i = 0; i < kSiteCount; ++i) {
    site_counts_[static_cast<std::size_t>(i)] = &registry.counter(
        fmt("fault.{}_total", site_name(static_cast<Site>(i))));
  }
}

void Injector::configure(Site site, const SiteConfig& config) {
  sites_[index_of(site)] = config;
}

std::uint64_t Injector::draw_u64(Site site, std::uint64_t op,
                                 std::uint64_t purpose) const noexcept {
  // One splitmix64 step over a mix of (seed, site, op, purpose): stateless,
  // so the decision for a given operation never depends on what else ran.
  std::uint64_t state =
      seed_ ^ ((static_cast<std::uint64_t>(site) + 1) * 0xA24BAED4963EE407ULL) ^
      (op * 0x9E3779B97F4A7C15ULL) ^ (purpose * 0xD6E8FEB86659FD93ULL);
  return splitmix64(state);
}

double Injector::draw(Site site, std::uint64_t op,
                      std::uint64_t purpose) const noexcept {
  return static_cast<double>(draw_u64(site, op, purpose) >> 11) * 0x1.0p-53;
}

void Injector::count(Site site) const noexcept {
  injected_->add(1);
  site_counts_[index_of(site)]->add(1);
}

void Injector::on_operation(Site site, std::uint64_t op) const {
  const SiteConfig& cfg = sites_[index_of(site)];
  if (cfg.delay_probability > 0 &&
      draw(site, op, kPurposeDelay) < cfg.delay_probability) {
    count(site);
    // Interruptible: an injected stall must behave like a real one — the
    // guard watchdog's deadline expiry (or an epoch cancellation) wakes the
    // sleep and unwinds the stage instead of serving the stall to the end.
    guard::interruptible_sleep(cfg.delay_seconds);
  }
  if (cfg.transient_probability > 0 &&
      draw(site, op, kPurposeTransient) < cfg.transient_probability) {
    count(site);
    throw TransientError(
        fmt("injected transient fault at {} (op {})", site_name(site), op));
  }
}

ByteSpan Injector::mutate(Site site, std::uint64_t op, ByteSpan data,
                          Bytes& scratch) const {
  const SiteConfig& cfg = sites_[index_of(site)];
  if (data.empty() ||
      (cfg.corrupt_probability <= 0 && cfg.truncate_probability <= 0)) {
    return data;
  }
  const bool corrupt = cfg.corrupt_probability > 0 &&
                       draw(site, op, kPurposeCorrupt) < cfg.corrupt_probability;
  const bool truncate =
      cfg.truncate_probability > 0 &&
      draw(site, op, kPurposeTruncate) < cfg.truncate_probability;
  if (!corrupt && !truncate) {
    return data;
  }
  scratch.assign(data.begin(), data.end());
  if (truncate) {
    // Keep a strict prefix (possibly empty) of the record.
    scratch.resize(static_cast<std::size_t>(
        draw_u64(site, op, kPurposeTruncateLen) % scratch.size()));
    count(site);
  }
  if (corrupt && !scratch.empty()) {
    // Flip one bit inside the record's first word. Every sciprep container
    // keeps verified framing there (codec magic, tfrecord length CRC, h5lite
    // superblock), so an injected corruption is deterministically *detected*
    // and surfaces as a typed error the policy layer can act on. Silent
    // body corruption — flips the format cannot see — is the fuzz suite's
    // domain, not the recovery path's.
    const std::uint64_t r = draw_u64(site, op, kPurposeCorruptBit);
    const std::size_t window = std::min<std::size_t>(scratch.size(), 4);
    scratch[static_cast<std::size_t>((r >> 3) % window)] ^=
        static_cast<std::uint8_t>(1u << (r & 7));
    count(site);
  }
  return ByteSpan(scratch);
}

Injector* Injector::global() noexcept {
  return g_global.load(std::memory_order_acquire);
}

void Injector::install_global(Injector* injector) noexcept {
  g_global.store(injector, std::memory_order_release);
}

}  // namespace sciprep::fault
