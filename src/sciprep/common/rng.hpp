// Deterministic random number generation for synthetic dataset synthesis.
//
// xoshiro256** with splitmix64 seeding: fast, reproducible across platforms,
// and independent of libstdc++'s distribution implementations (we implement
// the distributions we need so generated datasets are bit-stable).
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <numbers>

namespace sciprep {

/// splitmix64 — used to expand a single seed into generator state.
constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Derive an independent seed for one stream of an epoch-keyed family.
///
/// This is THE decision function every layer that touches ordering or
/// randomness derives from (DESIGN.md §12): the global epoch shuffle uses
/// stream id kShuffleStream, per-sample augmentation uses the sample id, and
/// sciprep::shard derives nothing else — per-rank sample sequences are slices
/// of the one global stream, so they are reproducible at any rank count.
/// Two splitmix64 rounds over a multiplicative mix keep the three inputs
/// decorrelated (adjacent epochs / ranks do not yield adjacent states).
constexpr std::uint64_t split_seed(std::uint64_t seed, std::uint64_t epoch,
                                   std::uint64_t stream) noexcept {
  std::uint64_t state = seed ^ (epoch * 0x9E3779B97F4A7C15ULL) ^
                        ((stream + 1) * 0xD6E8FEB86659FD93ULL);
  const std::uint64_t a = splitmix64(state);
  const std::uint64_t b = splitmix64(state);
  return a ^ (b << 1);
}

/// Reserved stream id for the global epoch shuffle (outside any plausible
/// sample-id range, so shuffle and augmentation streams never collide).
inline constexpr std::uint64_t kShuffleStream = 0x73687566666C65ULL;  // "shuffle"

/// xoshiro256** 1.0 (Blackman & Vigna).
class Rng {
 public:
  explicit constexpr Rng(std::uint64_t seed = 0x5C1D2EA9ULL) noexcept {
    std::uint64_t sm = seed;
    for (auto& word : state_) {
      word = splitmix64(sm);
    }
  }

  constexpr std::uint64_t next_u64() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform in [0, 1).
  double next_double() noexcept {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [0, bound) with rejection to remove modulo bias.
  std::uint64_t next_below(std::uint64_t bound) noexcept {
    if (bound <= 1) return 0;
    const std::uint64_t threshold = (0 - bound) % bound;
    for (;;) {
      const std::uint64_t r = next_u64();
      if (r >= threshold) return r % bound;
    }
  }

  /// Uniform in [lo, hi).
  double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * next_double();
  }

  /// Standard normal via Box–Muller (caches the second variate).
  double normal() noexcept {
    if (have_spare_) {
      have_spare_ = false;
      return spare_;
    }
    double u1 = 0.0;
    do {
      u1 = next_double();
    } while (u1 <= 0.0);
    const double u2 = next_double();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * std::numbers::pi * u2;
    spare_ = r * std::sin(theta);
    have_spare_ = true;
    return r * std::cos(theta);
  }

  /// Poisson-distributed count. Knuth's method for small mean, normal
  /// approximation (clamped at zero) beyond 64 where Knuth's product
  /// underflows and the approximation error is < 1%.
  std::uint32_t poisson(double mean) noexcept {
    if (mean <= 0.0) return 0;
    if (mean > 64.0) {
      const double v = mean + std::sqrt(mean) * normal();
      return v <= 0.0 ? 0u : static_cast<std::uint32_t>(v + 0.5);
    }
    const double limit = std::exp(-mean);
    double prod = next_double();
    std::uint32_t count = 0;
    while (prod > limit) {
      ++count;
      prod *= next_double();
    }
    return count;
  }

  /// Derive an independent stream for a substream index (e.g. per-sample).
  [[nodiscard]] Rng fork(std::uint64_t stream) const noexcept {
    std::uint64_t sm = state_[0] ^ (stream * 0xA24BAED4963EE407ULL + 0x9FB21C651E98DF25ULL);
    Rng child(0);
    for (auto& word : child.state_) {
      word = splitmix64(sm);
    }
    return child;
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
  double spare_ = 0.0;
  bool have_spare_ = false;
};

}  // namespace sciprep
