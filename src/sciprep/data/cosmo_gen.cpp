#include "sciprep/data/cosmo_gen.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "sciprep/common/error.hpp"
#include "sciprep/common/rng.hpp"

namespace sciprep::data {

namespace {

bool is_pow2(int v) { return v > 0 && (v & (v - 1)) == 0; }

/// Multiplicative cascade: refine a coarse lognormal field by factors of two,
/// multiplying each child cell by exp(sigma_level * N(0,1)). Returns dim³
/// strictly positive densities with mean ~1.
std::vector<float> cascade_density(int dim, int coarse, double sigma, Rng& rng) {
  std::vector<float> field(static_cast<std::size_t>(coarse) * coarse * coarse);
  for (auto& v : field) {
    v = static_cast<float>(std::exp(sigma * rng.normal()));
  }
  int cur = coarse;
  double level_sigma = sigma;
  while (cur < dim) {
    const int next = cur * 2;
    level_sigma *= 0.72;  // smaller fluctuations at smaller scales (~Kolmogorov)
    std::vector<float> refined(static_cast<std::size_t>(next) * next * next);
    for (int z = 0; z < next; ++z) {
      for (int y = 0; y < next; ++y) {
        for (int x = 0; x < next; ++x) {
          const std::size_t parent =
              (static_cast<std::size_t>(z / 2) * cur + (y / 2)) * cur + (x / 2);
          const float mult =
              static_cast<float>(std::exp(level_sigma * rng.normal()));
          refined[(static_cast<std::size_t>(z) * next + y) * next + x] =
              field[parent] * mult;
        }
      }
    }
    field = std::move(refined);
    cur = next;
  }
  // Normalize to mean 1 so `mean_count` has its documented meaning.
  double sum = 0;
  for (const float v : field) sum += v;
  const auto scale = static_cast<float>(field.size() / sum);
  for (auto& v : field) v *= scale;
  return field;
}

}  // namespace

CosmoGenerator::CosmoGenerator(CosmoGenConfig config) : config_(config) {
  if (!is_pow2(config_.dim) || config_.dim < 8) {
    throw ConfigError(
        fmt("cosmo generator: dim {} must be a power of two >= 8", config_.dim));
  }
}

CosmoParams CosmoGenerator::params_for(std::uint64_t index) const {
  Rng rng = Rng(config_.seed).fork(index * 2 + 1);
  const CosmoParams mean{};
  auto vary = [&rng](float m) {
    return m * static_cast<float>(rng.uniform(0.70, 1.30));
  };
  return {vary(mean.omega_m), vary(mean.sigma_8), vary(mean.n_s),
          vary(mean.h_0)};
}

io::CosmoSample CosmoGenerator::generate(std::uint64_t index) const {
  const CosmoParams p = params_for(index);
  Rng rng = Rng(config_.seed).fork(index * 2);

  const int dim = config_.dim;
  // sigma_8 controls fluctuation amplitude; h_0 the correlation length (via
  // the coarse-grid size the cascade starts from).
  const double sigma = 1.10 * (p.sigma_8 / 0.80);
  int coarse = dim / 16;
  if (p.h_0 > 0.70F * 1.1F) coarse = dim / 32;   // longer correlations
  if (p.h_0 < 0.70F * 0.9F) coarse = dim / 8;    // shorter correlations
  coarse = std::max(2, coarse);

  const std::vector<float> density = cascade_density(dim, coarse, sigma, rng);

  // Structure growth: each redshift sees the same field sharpened by an
  // increasing exponent (progressive clustering toward redshift 0), tilted by
  // the spectral index. Redshift order matches the dataset: oldest first.
  std::array<double, io::CosmoSample::kRedshifts> gamma{};
  const double tilt = p.n_s / 0.96;
  const std::array<double, 4> base_gamma = {0.55, 0.80, 1.10, 1.45};
  // Particle intensity per redshift: total matter (omega_m) sets the budget;
  // later snapshots concentrate the same matter into fewer, denser voxels.
  std::array<double, 4> intensity{};
  for (int r = 0; r < 4; ++r) {
    gamma[static_cast<std::size_t>(r)] = base_gamma[static_cast<std::size_t>(r)] * tilt;
    intensity[static_cast<std::size_t>(r)] =
        config_.mean_count * (p.omega_m / 0.30) * (0.85 + 0.05 * r);
  }

  // Normalizing constants so each snapshot keeps mean `intensity[r]` after
  // sharpening: E[rho^gamma] != 1.
  std::array<double, 4> norm{};
  for (int r = 0; r < 4; ++r) {
    double sum = 0;
    for (const float v : density) {
      sum += std::pow(static_cast<double>(v), gamma[static_cast<std::size_t>(r)]);
    }
    norm[static_cast<std::size_t>(r)] =
        intensity[static_cast<std::size_t>(r)] * static_cast<double>(density.size()) / sum;
  }

  io::CosmoSample sample;
  sample.dim = dim;
  sample.params = {p.omega_m, p.sigma_8, p.n_s, p.h_0};
  sample.counts.resize(sample.value_count());

  std::size_t out = 0;
  for (const float rho : density) {
    for (int r = 0; r < io::CosmoSample::kRedshifts; ++r) {
      const double mean =
          norm[static_cast<std::size_t>(r)] *
          std::pow(static_cast<double>(rho), gamma[static_cast<std::size_t>(r)]);
      // Clamp after the draw (keeps the RNG stream) to the uint16 range
      // the serialized histograms store.
      sample.counts[out++] = static_cast<std::int32_t>(
          std::min<std::uint32_t>(rng.poisson(mean), 65535));
    }
  }
  return sample;
}

}  // namespace sciprep::data
