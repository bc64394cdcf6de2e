#pragma once
// Fixed-size worker pool. The sketching shards are coarse-grained (one task
// per shard or merge group), so a simple mutex-guarded queue is plenty; no
// work-stealing needed.
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
  /// has finished.
  ///
  /// Re-entrancy: when called from one of this pool's own workers (a shard
  /// task whose inner GEMM dispatches row bands back onto the same pool),
  /// the loop runs inline on the calling worker instead of enqueueing.
  /// Blocking a worker on futures served by the same queue can deadlock a
  /// saturated pool; inline execution is safe because the parallel and
  /// serial kernel paths are bitwise identical.
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

/// Process-wide shared pool, created lazily on first use and joined at
/// process exit. This is the executor the blocked linalg kernels dispatch
/// row bands onto; sharing one pool keeps the thread count bounded no
/// matter how many sketches are live. Size comes from the
/// ARAMS_POOL_THREADS environment variable when set (tests use it to force
/// a multi-threaded pool on single-core machines), otherwise
/// hardware_concurrency.
ThreadPool& shared_pool();

}  // namespace arams::parallel
