// Fixed-size worker pool with a blocking parallel_for and weighted-fair
// scheduling across submission classes.
//
// Used by the pipeline executor for CPU-side per-sample decode (the paper
// assigns "different samples to different threads" on the CPU), by SimGpu
// to back its warp engine, and — shared — by sciprep::serve to multiplex
// many tenants' decode fan-outs onto one set of workers. Exceptions thrown
// by work items are captured and rethrown on the calling thread.
//
// Scheduling: every task belongs to a scheduling class (`key`), and classes
// compete under stride scheduling — each class advances a virtual-time pass
// by kStrideUnit/weight per dispatched task, and workers always pick the
// backlogged class with the smallest pass. A class with weight 3 therefore
// gets 3x the dispatch rate of a weight-1 class while both are backlogged,
// and an idle class rejoins at the current virtual time instead of cashing
// in saved-up credit (no starvation, no burst debt). The default key 0 /
// weight 1 makes a single-tenant pool behave exactly like a FIFO queue.
//
// Cancellation: submit() captures the submitter's ambient guard::CancelToken
// and the worker re-installs it (guard::CancelScope) around the task, so
// cancellation context flows through the pool transparently — a task that
// calls guard::poll_cancellation() observes the cancellation state of
// whoever submitted it, including through nested parallel_for fan-outs.
//
// Isolation: parallel_for tracks its own task group — completion and the
// first captured exception are per-call, not pool-global — so two tenants
// fanning out on one shared pool never observe each other's failures or
// block on each other's stragglers beyond ordinary queueing.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "sciprep/guard/cancel.hpp"

namespace sciprep {

/// Small dense id for the calling thread (0 for the first thread that asks).
/// Stable for the thread's lifetime; used for log lines and trace spans.
std::uint32_t thread_index() noexcept;

/// Register a human-readable role name for the calling thread, keyed by its
/// thread_index(). Pool workers, the guard watchdog, and the insight exporter
/// name themselves; apps may name their consumer thread. The name shows up as
/// Perfetto `thread_name` metadata in exported traces and in flight-recorder
/// incident files. Re-naming overwrites.
void set_thread_name(std::string name);

/// The registered name for a thread_index(), or "" when the thread never
/// named itself.
[[nodiscard]] std::string thread_name(std::uint32_t index);

/// Observation hook for ThreadPool queue/task telemetry. Implementations
/// must be thread-safe; callbacks run on submitter and worker threads.
class ThreadPoolObserver {
 public:
  virtual ~ThreadPoolObserver() = default;
  /// A task was queued; `queue_depth` counts it.
  virtual void on_enqueue(std::size_t queue_depth) { (void)queue_depth; }
  /// A task finished. `queue_seconds` is the time it waited in the queue,
  /// `run_seconds` the time it ran (including a throwing run).
  virtual void on_task_complete(double queue_seconds, double run_seconds) {
    (void)queue_seconds;
    (void)run_seconds;
  }
};

class ThreadPool {
 public:
  /// Virtual-time quantum one weight-1 task advances a class's pass by.
  static constexpr std::uint64_t kStrideUnit = 1 << 16;

  /// `threads == 0` selects the hardware concurrency (at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Attach an unowned observer (nullptr detaches). The observer must
  /// outlive the pool or be detached before destruction.
  void set_observer(ThreadPoolObserver* observer) noexcept {
    observer_.store(observer);
  }

  /// Tasks currently waiting in the queue (excludes running tasks).
  [[nodiscard]] std::size_t queue_depth() const;

  /// Enqueue one task under scheduling class `key` with the class's fair
  /// share `weight` (>= 1; the latest submit's weight wins for the class).
  /// Returns immediately.
  void submit(std::function<void()> task, std::uint64_t key = 0,
              std::uint32_t weight = 1);

  /// Block until every submitted task has finished. Rethrows the first
  /// exception captured from a bare submit()ed task, if any (parallel_for
  /// failures are rethrown by parallel_for itself, never here).
  void wait_idle();

  /// Run fn(i) for i in [0, n), partitioned into contiguous grains, and wait
  /// for exactly these grains (not the whole pool). The first exception any
  /// grain throws is rethrown here after the group drains; other callers'
  /// tasks and failures are invisible. `key`/`weight` place the grains in a
  /// scheduling class (see submit).
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                    std::size_t grain = 1, std::uint64_t key = 0,
                    std::uint32_t weight = 1);

 private:
  /// Completion + error state of one parallel_for call. Workers decrement
  /// `remaining` only after the task's observer callback has fired, so a
  /// caller woken by the group cannot observe missing telemetry.
  struct TaskGroup {
    std::mutex m;
    std::condition_variable cv;
    std::size_t remaining = 0;
    std::exception_ptr error;
  };

  struct QueuedTask {
    std::function<void()> fn;
    std::chrono::steady_clock::time_point enqueued_at;
    guard::CancelToken token;  // submitter's ambient token (often null)
    std::shared_ptr<TaskGroup> group;  // null for bare submit()ed tasks
  };

  /// One scheduling class's backlog and virtual-time position.
  struct SubQueue {
    std::deque<QueuedTask> tasks;
    std::uint64_t pass = 0;
    std::uint32_t weight = 1;
  };

  void enqueue_locked(QueuedTask task, std::uint64_t key, std::uint32_t weight);
  void worker_loop();

  std::vector<std::thread> workers_;
  std::map<std::uint64_t, SubQueue> queues_;
  std::size_t queued_ = 0;   // total tasks across queues_
  std::uint64_t vtime_ = 0;  // pass of the last dispatched class
  mutable std::mutex mutex_;
  std::condition_variable cv_task_;
  std::condition_variable cv_idle_;
  std::size_t active_ = 0;
  bool stopping_ = false;
  std::exception_ptr first_error_;
  std::atomic<ThreadPoolObserver*> observer_{nullptr};
};

/// Process-wide shared pool for callers that do not manage their own.
ThreadPool& global_pool();

}  // namespace sciprep
