#include "sciprep/sim/simgpu.hpp"

#include <chrono>
#include <mutex>
#include <vector>

#include "sciprep/common/error.hpp"
#include "sciprep/common/format.hpp"
#include "sciprep/guard/cancel.hpp"
#include "sciprep/obs/trace.hpp"

namespace sciprep::sim {

void KernelStats::merge(const KernelStats& other) noexcept {
  wall_seconds += other.wall_seconds;
  warps += other.warps;
  bytes_read += other.bytes_read;
  bytes_written += other.bytes_written;
  lockstep_ops += other.lockstep_ops;
  divergent_branches += other.divergent_branches;
}

SimGpu::SimGpu(Config config, ThreadPool* pool)
    : config_(config), pool_(pool != nullptr ? pool : &global_pool()) {
  SCIPREP_ASSERT(config_.sm_count > 0 && config_.warps_per_sm > 0);
}

KernelStats SimGpu::launch(std::size_t warp_count,
                           const std::function<void(Warp&)>& kernel) {
  KernelStats stats;
  stats.warps = warp_count;
  if (warp_count == 0) return stats;

  obs::ScopedSpan kernel_span("sim.kernel", "sim");
  guard::poll_cancellation();
  const auto start = std::chrono::steady_clock::now();

  std::mutex merge_mutex;
  // Chunk warps into waves the way an SM scheduler would: each task body
  // runs a contiguous batch of warps, bounding task overhead for large grids.
  const std::size_t grain = std::max<std::size_t>(
      1, warp_count / (static_cast<std::size_t>(config_.sm_count) *
                       static_cast<std::size_t>(config_.warps_per_sm)));
  pool_->parallel_for(
      warp_count,
      [&](std::size_t warp_id) {
        // Cancellation point per warp: a cancelled/deadline-expired launch
        // unwinds within one warp body instead of running the grid dry. The
        // pool propagates the submitter's ambient token to its workers.
        guard::poll_cancellation();
        Warp warp(warp_id);
        kernel(warp);
        std::lock_guard lock(merge_mutex);
        stats.bytes_read += warp.bytes_read();
        stats.bytes_written += warp.bytes_written();
        stats.lockstep_ops += warp.lockstep_ops();
        stats.divergent_branches += warp.divergent_branches();
      },
      grain);

  stats.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  lifetime_.merge(stats);
  if (kernel_span.active()) {
    kernel_span.set_args_json(
        fmt("{{\"warps\": {}, \"bytes_read\": {}, \"bytes_written\": {}, "
            "\"lockstep_ops\": {}, \"divergent_branches\": {}, "
            "\"wall_ms\": {:.6f}}}",
            stats.warps, stats.bytes_read, stats.bytes_written,
            stats.lockstep_ops, stats.divergent_branches,
            stats.wall_seconds * 1e3));
  }
  return stats;
}

}  // namespace sciprep::sim
