// Rank-count axis for the figure benches (sciprep::shard, DESIGN.md §12):
// run the real ShardCoordinator over a reduced in-memory workload at world
// sizes {1, 2, 4, 8}, check the merged global stream digest is bit-identical
// at every rank count, and report measured throughput plus per-rank scaling
// efficiency into the bench record. The coordinator multiplexes all ranks onto
// one process, so aggregate throughput should be flat across world sizes —
// efficiency below ~1.0 is coordinator overhead, exactly the per-rank
// sharding cost the <1% contract bounds.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>

#include "sciprep/apps/benchreport.hpp"
#include "sciprep/common/format.hpp"
#include "sciprep/pipeline/pipeline.hpp"
#include "sciprep/shard/coordinator.hpp"

namespace benchutil {

/// One world size's measurement: wall-clock aggregate samples/s over
/// `epochs` full epochs, plus the run's merged stream digest.
struct ShardAxisPoint {
  int world = 0;
  double samples_per_s = 0;
  std::uint32_t stream_digest = 0;
  std::uint64_t samples = 0;
};

inline ShardAxisPoint run_shard_world(
    const sciprep::pipeline::InMemoryDataset& dataset,
    const sciprep::codec::SampleCodec& codec, int world, int epochs,
    int batch, bool staged) {
  namespace shard = sciprep::shard;
  shard::ShardConfig cfg;
  cfg.world = world;
  cfg.staged = staged;
  cfg.pipeline.batch_size = batch;
  cfg.pipeline.worker_threads = 2;
  cfg.pipeline.seed = 7;
  cfg.pipeline.prefetch = false;
  cfg.verify_stream = true;
  shard::ShardCoordinator coordinator(dataset, codec, cfg);

  const auto t0 = std::chrono::steady_clock::now();
  shard::ShardBatch sb;
  for (int epoch = 0; epoch < epochs; ++epoch) {
    if (coordinator.epoch() != static_cast<std::uint64_t>(epoch)) {
      coordinator.start_epoch(static_cast<std::uint64_t>(epoch));
    }
    while (coordinator.step(sb)) {
    }
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  ShardAxisPoint p;
  p.world = world;
  p.samples = coordinator.aggregate().totals.samples;
  p.samples_per_s = static_cast<double>(p.samples) / (wall > 0 ? wall : 1e-9);
  p.stream_digest = coordinator.digest().stream_digest();
  return p;
}

/// Run the rank-count axis and report it: a printed table plus
/// shard.samples_per_s.rN, shard.efficiency.rN (throughput at N ranks over
/// throughput at 1, wall-measured),
/// and shard.digest_invariant (1.0 iff every world produced the identical
/// merged stream digest — the bit-reproducibility headline, exact).
inline void report_shard_rank_axis(
    sciprep::apps::BenchReporter& reporter,
    const sciprep::pipeline::InMemoryDataset& dataset,
    const sciprep::codec::SampleCodec& codec, int epochs = 2, int batch = 4,
    bool staged = true) {
  std::printf("\nrank-count axis (in-process ShardCoordinator, %zu samples, "
              "%d epochs, %s):\n",
              dataset.size(), epochs, staged ? "staged" : "unstaged");
  std::printf("%-6s %-12s %-11s %-10s\n", "ranks", "samples/s", "efficiency",
              "digest");
  ShardAxisPoint base;
  bool invariant = true;
  for (const int world : {1, 2, 4, 8}) {
    const ShardAxisPoint p =
        run_shard_world(dataset, codec, world, epochs, batch, staged);
    if (world == 1) base = p;
    invariant = invariant && p.stream_digest == base.stream_digest &&
                p.samples == base.samples;
    const double efficiency = p.samples_per_s / base.samples_per_s;
    std::printf("%-6d %-12.1f %-11.2f %08x\n", world, p.samples_per_s,
                efficiency, p.stream_digest);
    reporter.add_metric(sciprep::fmt("shard.samples_per_s.r{}", world),
                        p.samples_per_s, "samples/s", "measured",
                        /*better_higher=*/true);
    if (world > 1) {
      reporter.add_metric(sciprep::fmt("shard.efficiency.r{}", world),
                          efficiency, "x", "measured", /*better_higher=*/true);
    }
  }
  std::printf("digest %s across rank counts {1,2,4,8}\n",
              invariant ? "BIT-IDENTICAL" : "DIVERGED");
  reporter.add_metric("shard.digest_invariant", invariant ? 1.0 : 0.0, "bool",
                      "measured", /*better_higher=*/true);
}

}  // namespace benchutil
