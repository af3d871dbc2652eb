// Figure 5 reproduction — CosmoFlow sample content analysis:
//  (a) power-law frequency of unique values (log-log slope),
//  (b) unique value counts per sample,
//  (c) unique groups-of-4 counts (the lookup-table key-space), compared with
//      the combinatorial bound the paper quotes (~1.2e11 possibilities).
#include <cmath>
#include <cstdio>
#include <set>
#include <unordered_set>

#include "bench_util.hpp"
#include "sciprep/common/stats.hpp"
#include "sciprep/data/cosmo_gen.hpp"

int main(int argc, char** argv) {
  using namespace sciprep;
  const auto args = benchutil::parse_bench_args(argc, argv);
  const int dim = args.pos_int(0, 128);
  const int nsamples = args.pos_int(1, 4);
  apps::BenchReporter reporter("fig5_cosmo_stats");
  reporter.set_config(fmt("dim={} nsamples={}", dim, nsamples));

  data::CosmoGenConfig cfg;
  cfg.dim = dim;
  cfg.seed = 2022;
  const data::CosmoGenerator gen(cfg);

  benchutil::print_header(
      fmt("Figure 5 — CosmoFlow sample statistics ({} samples, dim={})",
          nsamples, dim));
  std::printf(
      "paper (128^3): unique values ~ few hundred (e.g. 558); unique groups\n"
      "of 4 ~ tens of thousands (e.g. 36944 of 1.2e11 possible); frequency\n"
      "follows a power law.\n\n");

  std::printf("%-8s %-14s %-14s %-16s %-20s %-12s\n", "sample", "uniqueVals",
              "uniqueGroups", "possibleGroups", "coupling(poss/grp)",
              "plawSlope");
  for (int s = 0; s < nsamples; ++s) {
    const auto sample = gen.generate(static_cast<std::uint64_t>(s));
    std::set<std::int32_t> unique(sample.counts.begin(), sample.counts.end());
    FrequencyTable freq;
    for (const auto c : sample.counts) freq.add(c);
    std::unordered_set<std::uint64_t> groups;
    for (std::size_t v = 0; v < sample.counts.size(); v += 4) {
      std::uint64_t key = 1469598103934665603ull;
      for (int r = 0; r < 4; ++r) {
        key = (key ^ static_cast<std::uint64_t>(sample.counts[v + r])) *
              1099511628211ull;
      }
      groups.insert(key);
    }
    const double possible = std::pow(static_cast<double>(unique.size()), 4);
    std::printf("%-8d %-14zu %-14zu %-16.3e %-20.1f %-12.2f\n", s,
                unique.size(), groups.size(), possible,
                possible / static_cast<double>(groups.size()),
                freq.power_law_slope(64));
  }

  // Fig 5(a): rank-frequency table for one sample.
  const auto sample = gen.generate(0);
  FrequencyTable freq;
  for (const auto c : sample.counts) freq.add(c);
  std::printf("\nrank-frequency (sample 0, top 16 ranks):\n");
  std::printf("%-6s %-10s %-12s\n", "rank", "value", "frequency");
  const auto ranked = freq.by_frequency();
  for (std::size_t r = 0; r < std::min<std::size_t>(16, ranked.size()); ++r) {
    std::printf("%-6zu %-10lld %-12llu\n", r + 1,
                static_cast<long long>(ranked[r].first),
                static_cast<unsigned long long>(ranked[r].second));
  }

  std::set<std::int32_t> unique0(sample.counts.begin(), sample.counts.end());
  reporter.add_metric("unique_values.sample0",
                      static_cast<double>(unique0.size()), "count",
                      "measured");
  reporter.add_metric("power_law_slope.sample0", freq.power_law_slope(64),
                      "slope", "measured", /*better_higher=*/false);
  benchutil::finish(args, reporter);
  return 0;
}
