#pragma once
// Fixed-size worker pool plus the one fan-out rule every parallel loop in
// the library goes through (for_each_index / for_each_band below). Callers
// gate the pool on a work threshold, so tasks are coarse enough that a
// simple mutex-guarded queue is plenty; no work-stealing needed.
//
// Telemetry: every pool reports "pool.queue_depth" (gauge), per-task
// "pool.task_wait_seconds" / "pool.task_run_seconds" latency histograms,
// a "pool.workers_busy" gauge (workers currently inside a task), and one
// "pool.worker.<i>.utilization" gauge per worker (busy seconds / alive
// seconds since the pool started, refreshed after every task) to
// obs::metrics(), so queueing delay is separable from compute time and a
// cold shard (one worker pinned, the rest idle) is visible at a glance.
// Pools share these names; in practice the long-lived recorder is
// shared_pool().

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace arams::parallel {

class ThreadPool {
 public:
  /// Spawns `threads` workers (0 → hardware_concurrency, min 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task; the future resolves when it finishes (or rethrows).
  std::future<void> submit(std::function<void()> task);

  /// Runs fn(i) for i in [0, count) across the pool and waits for all.
  /// Exceptions from tasks are rethrown (first one wins), after every task
  /// has finished. Called from one of this pool's own workers, the loop
  /// runs inline instead: a worker blocked on futures its own queue serves
  /// can deadlock a saturated pool.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& fn);

  /// True when the calling thread is one of this pool's workers.
  [[nodiscard]] bool on_worker_thread() const;

  [[nodiscard]] std::size_t thread_count() const { return workers_.size(); }

 private:
  struct Pending {
    std::packaged_task<void()> task;
    std::chrono::steady_clock::time_point enqueued;
  };

  void worker_loop(std::size_t index);

  std::vector<std::thread> workers_;
  std::queue<Pending> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::atomic<long> busy_workers_{0};
  bool stopping_ = false;
};

/// Largest worker count ARAMS_POOL_THREADS may ask for.
inline constexpr std::size_t kMaxPoolThreads = 1024;

/// Reads an ARAMS_POOL_THREADS value: nullptr (unset) → 0, meaning
/// hardware_concurrency; a whole number in [1, kMaxPoolThreads] → itself.
/// Anything else throws CheckError naming the variable.
std::size_t pool_threads_from_env(const char* value);

/// Process-wide shared pool, created lazily on first use and joined at
/// process exit; sharing one pool keeps the thread count bounded no matter
/// how many sketches are live. Sized by ARAMS_POOL_THREADS when set (tests
/// use it to force a multi-threaded pool on single-core machines),
/// otherwise hardware_concurrency.
ThreadPool& shared_pool();

/// The one fan-out test: `pool` is non-null with two or more workers,
/// there is more than one item, and the caller is not one of its workers.
[[nodiscard]] inline bool fans_out(const ThreadPool* pool, std::size_t count) {
  return pool != nullptr && pool->thread_count() >= 2 && count > 1 &&
         !pool->on_worker_thread();
}

// for_each_index / for_each_band run on `pool` when fans_out(), otherwise
// inline on the calling thread in ascending order, without type-erasing
// the callable (the inline path allocates nothing). Callers' items are
// independent with disjoint outputs, so fan-out never changes a result bit.

/// Runs fn(i) for every i in [0, count).
template <typename Fn>
void for_each_index(ThreadPool* pool, std::size_t count, const Fn& fn) {
  if (fans_out(pool, count)) {
    pool->parallel_for(count, fn);
    return;
  }
  for (std::size_t i = 0; i < count; ++i) fn(i);
}

/// Runs band(i0, i1) over [0, n): as min(n, 4·workers) contiguous ranges
/// [n·t/b, n·(t+1)/b) on the pool (four per worker lets the queue balance
/// load), or as one inline band(0, n).
template <typename BandFn>
void for_each_band(ThreadPool* pool, std::size_t n, const BandFn& band) {
  if (n == 0) return;
  if (!fans_out(pool, n)) {
    band(std::size_t{0}, n);
    return;
  }
  const std::size_t bands = std::min(n, pool->thread_count() * 4);
  pool->parallel_for(bands, [&](std::size_t t) {
    band(n * t / bands, n * (t + 1) / bands);
  });
}

}  // namespace arams::parallel
