#include "sciprep/common/threadpool.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "sciprep/common/format.hpp"

namespace sciprep {

std::uint32_t thread_index() noexcept {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t index = next.fetch_add(1);
  return index;
}

namespace {

// Function-local statics: usable from other static-storage objects (the
// global tracer's exporter) regardless of initialization order. Leaked on
// purpose, never destroyed: both are first built inside a pool worker's
// set_thread_name(), so as ordinary statics they could finish construction
// after global_pool()'s and be destroyed before the pool's workers exit.
std::mutex& thread_names_mutex() {
  static auto& mutex = *new std::mutex;
  return mutex;
}

std::map<std::uint32_t, std::string>& thread_names_map() {
  static auto& names = *new std::map<std::uint32_t, std::string>;
  return names;
}

}  // namespace

void set_thread_name(std::string name) {
  const std::uint32_t index = thread_index();
  std::lock_guard lock(thread_names_mutex());
  thread_names_map()[index] = std::move(name);
}

std::string thread_name(std::uint32_t index) {
  std::lock_guard lock(thread_names_mutex());
  const auto& names = thread_names_map();
  const auto it = names.find(index);
  return it == names.end() ? std::string() : it->second;
}

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] {
      set_thread_name(fmt("pool.worker-{}", i));
      worker_loop();
    });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) {
    w.join();
  }
}

std::size_t ThreadPool::queue_depth() const {
  std::lock_guard lock(mutex_);
  return queued_;
}

void ThreadPool::enqueue_locked(QueuedTask task, std::uint64_t key,
                                std::uint32_t weight) {
  SubQueue& q = queues_[key];
  q.weight = std::max<std::uint32_t>(1, weight);
  if (q.tasks.empty()) {
    // A class rejoining after idling starts at the current virtual time: it
    // competes fairly from now on but cannot cash in credit accumulated
    // while it had nothing to run.
    q.pass = std::max(q.pass, vtime_);
  }
  q.tasks.push_back(std::move(task));
  ++queued_;
}

void ThreadPool::submit(std::function<void()> task, std::uint64_t key,
                        std::uint32_t weight) {
  std::size_t depth = 0;
  {
    std::lock_guard lock(mutex_);
    enqueue_locked({std::move(task), std::chrono::steady_clock::now(),
                    guard::current_token(), /*group=*/nullptr},
                   key, weight);
    depth = queued_;
  }
  cv_task_.notify_one();
  if (ThreadPoolObserver* obs = observer_.load()) {
    obs->on_enqueue(depth);
  }
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(mutex_);
  cv_idle_.wait(lock, [this] { return queued_ == 0 && active_ == 0; });
  if (first_error_) {
    std::exception_ptr err = std::exchange(first_error_, nullptr);
    lock.unlock();
    std::rethrow_exception(err);
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn,
                              std::size_t grain, std::uint64_t key,
                              std::uint32_t weight) {
  if (n == 0) return;
  grain = std::max<std::size_t>(1, grain);
  // Run inline when the pool would add nothing but overhead.
  if (n <= grain || workers_.size() == 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // Group-local completion: the caller waits for exactly its own grains and
  // sees exactly its own first failure — never another caller's — so many
  // tenants can fan out on one shared pool without error or latency bleed.
  auto group = std::make_shared<TaskGroup>();
  for (std::size_t begin = 0; begin < n; begin += grain) {
    ++group->remaining;
  }
  std::size_t depth = 0;
  std::size_t grains = 0;
  {
    std::lock_guard lock(mutex_);
    for (std::size_t begin = 0; begin < n; begin += grain) {
      const std::size_t end = std::min(n, begin + grain);
      ++grains;
      enqueue_locked({[&fn, begin, end] {
                        for (std::size_t i = begin; i < end; ++i) fn(i);
                      },
                      std::chrono::steady_clock::now(),
                      guard::current_token(), group},
                     key, weight);
    }
    depth = queued_;
  }
  cv_task_.notify_all();
  if (ThreadPoolObserver* obs = observer_.load()) {
    // One on_enqueue per task, pairing with each task's on_task_complete.
    for (std::size_t g = 0; g < grains; ++g) obs->on_enqueue(depth);
  }
  std::unique_lock glock(group->m);
  group->cv.wait(glock, [&] { return group->remaining == 0; });
  if (group->error) {
    std::exception_ptr err = std::exchange(group->error, nullptr);
    glock.unlock();
    std::rethrow_exception(err);
  }
}

void ThreadPool::worker_loop() {
  for (;;) {
    QueuedTask task;
    {
      std::unique_lock lock(mutex_);
      cv_task_.wait(lock, [this] { return stopping_ || queued_ > 0; });
      if (queued_ == 0) {
        return;  // stopping
      }
      // Stride pick: the backlogged class with the smallest pass runs next
      // (ties break toward the smallest key, deterministically). The number
      // of classes is the number of concurrent tenants — single digits — so
      // a linear scan beats any priority structure's constant factor.
      auto chosen = queues_.end();
      for (auto it = queues_.begin(); it != queues_.end(); ++it) {
        if (it->second.tasks.empty()) continue;
        if (chosen == queues_.end() || it->second.pass < chosen->second.pass) {
          chosen = it;
        }
      }
      SubQueue& q = chosen->second;
      vtime_ = q.pass;
      q.pass += kStrideUnit / q.weight;
      task = std::move(q.tasks.front());
      q.tasks.pop_front();
      --queued_;
      ++active_;
    }
    const auto started = std::chrono::steady_clock::now();
    try {
      const guard::CancelScope scope(std::move(task.token));
      task.fn();
    } catch (...) {
      if (task.group) {
        // Group tasks fail their own parallel_for call only.
        std::lock_guard glock(task.group->m);
        if (!task.group->error) task.group->error = std::current_exception();
      } else {
        // Bare submit()ed failures surface through wait_idle().
        std::lock_guard lock(mutex_);
        if (!first_error_) first_error_ = std::current_exception();
      }
    }
    if (ThreadPoolObserver* obs = observer_.load()) {
      const auto finished = std::chrono::steady_clock::now();
      obs->on_task_complete(
          std::chrono::duration<double>(started - task.enqueued_at).count(),
          std::chrono::duration<double>(finished - started).count());
    }
    if (task.group) {
      // Completion is announced only after the observer saw the task, so a
      // caller woken by its group never races the pool's telemetry.
      {
        std::lock_guard glock(task.group->m);
        --task.group->remaining;
      }
      task.group->cv.notify_one();
    }
    {
      std::lock_guard lock(mutex_);
      --active_;
      if (queued_ == 0 && active_ == 0) {
        cv_idle_.notify_all();
      }
    }
  }
}

ThreadPool& global_pool() {
  static ThreadPool pool;
  return pool;
}

}  // namespace sciprep
