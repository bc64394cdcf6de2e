// Thread pool, and the shard-and-merge claims behind Figs. 2–3: P cores
// each sketch their own shard with FD, then tree_merge or serial_merge
// reduces the P sketches (on a pool when one is given).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/fd.hpp"
#include "core/merge.hpp"
#include "data/synthetic.hpp"
#include "linalg/blas.hpp"
#include "linalg/norms.hpp"
#include "parallel/thread_pool.hpp"
#include "rng/rng.hpp"
#include "util/check.hpp"

// Counting global operator new/delete, for the inline fan-out path's
// no-allocation check.
#include "counting_new.hpp"

namespace arams::parallel {
namespace {

using linalg::Matrix;

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 20; ++i) {
    futures.push_back(pool.submit([&counter] { ++counter; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 20);
}

TEST(ThreadPool, ParallelForCoversRange) {
  ThreadPool pool(3);
  std::vector<int> hits(50, 0);
  pool.parallel_for(50, [&hits](std::size_t i) { hits[i] = 1; });
  for (const int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(4,
                        [](std::size_t i) {
                          if (i == 2) throw std::runtime_error("task failed");
                        }),
      std::runtime_error);
}

TEST(ThreadPool, ParallelForRethrowsOnlyAfterEveryTaskFinished) {
  // Task 0 fails at once while task 1 is still running; the queued tasks
  // reference the caller's fn, so parallel_for must wait for task 1 before
  // it rethrows.
  ThreadPool pool(2);
  std::atomic<bool> slow_done{false};
  EXPECT_THROW(pool.parallel_for(2,
                                 [&slow_done](std::size_t i) {
                                   if (i == 0) {
                                     throw std::runtime_error("task failed");
                                   }
                                   std::this_thread::sleep_for(
                                       std::chrono::milliseconds(50));
                                   slow_done = true;
                                 }),
               std::runtime_error);
  EXPECT_TRUE(slow_done.load());
}

TEST(ThreadPool, DefaultSizeIsAtLeastOne) {
  ThreadPool pool;
  EXPECT_GE(pool.thread_count(), 1u);
}

TEST(ThreadPool, OnWorkerThreadIsPoolSpecific) {
  ThreadPool pool(2);
  ThreadPool other(2);
  EXPECT_FALSE(pool.on_worker_thread());
  bool inside_own = false;
  bool inside_other = true;
  pool.submit([&] {
        inside_own = pool.on_worker_thread();
        inside_other = other.on_worker_thread();
      })
      .get();
  EXPECT_TRUE(inside_own);
  EXPECT_FALSE(inside_other);
}

TEST(ThreadPool, NestedParallelForRunsInlineWithoutDeadlock) {
  // A shard task whose inner kernel dispatches onto the same pool must not
  // block on futures served by its own queue: the nested parallel_for runs
  // inline on the calling worker. With every worker occupied by an outer
  // task, a queue-based nested dispatch would deadlock this test.
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.parallel_for(4, [&pool, &counter](std::size_t) {
    pool.parallel_for(8, [&counter](std::size_t) { ++counter; });
  });
  EXPECT_EQ(counter.load(), 32);
}

/// What one for_each_index / for_each_band call did: the indices and bands
/// in call order, and whether every call ran on the calling thread.
struct FanOutLog {
  std::vector<std::size_t> indices;
  std::vector<std::pair<std::size_t, std::size_t>> bands;
  bool all_on_caller = true;
};

FanOutLog run_both(ThreadPool* pool, std::size_t n) {
  FanOutLog log;
  std::mutex mutex;
  const std::thread::id caller = std::this_thread::get_id();
  for_each_index(pool, n, [&](std::size_t i) {
    const std::lock_guard<std::mutex> lock(mutex);
    log.indices.push_back(i);
    log.all_on_caller &= std::this_thread::get_id() == caller;
  });
  for_each_band(pool, n, [&](std::size_t i0, std::size_t i1) {
    const std::lock_guard<std::mutex> lock(mutex);
    log.bands.emplace_back(i0, i1);
    log.all_on_caller &= std::this_thread::get_id() == caller;
  });
  return log;
}

/// Inline: every index in ascending order, one band [0, n), all on the
/// calling thread.
void expect_inline(ThreadPool* pool, std::size_t n) {
  EXPECT_FALSE(fans_out(pool, n));
  const FanOutLog log = run_both(pool, n);
  std::vector<std::size_t> ascending(n);
  for (std::size_t i = 0; i < n; ++i) ascending[i] = i;
  EXPECT_EQ(log.indices, ascending);
  if (n == 0) {
    EXPECT_TRUE(log.bands.empty());
  } else {
    ASSERT_EQ(log.bands.size(), 1u);
    EXPECT_EQ(log.bands.front(), std::make_pair(std::size_t{0}, n));
  }
  EXPECT_TRUE(log.all_on_caller);
}

TEST(FanOut, RunsInlineWithoutAUsablePool) {
  expect_inline(nullptr, 9);
  ThreadPool one(1);
  expect_inline(&one, 9);
  ThreadPool two(2);
  expect_inline(&two, 0);
  expect_inline(&two, 1);
}

TEST(FanOut, RunsInlineInsideItsOwnWorkers) {
  ThreadPool pool(2);
  pool.submit([&pool] { expect_inline(&pool, 9); }).get();
}

TEST(FanOut, EveryIndexRunsExactlyOnceOnTwoWorkers) {
  ThreadPool pool(2);
  ASSERT_TRUE(fans_out(&pool, 2));
  for (const std::size_t n : {2u, 3u, 37u}) {
    std::vector<std::atomic<int>> hits(n);
    for_each_index(&pool, n, [&hits](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(FanOut, BandsTileTheRangeInFourPerWorker) {
  ThreadPool pool(2);
  for (const std::size_t n : {2u, 3u, 7u, 8u, 9u, 100u}) {
    FanOutLog log = run_both(&pool, n);
    std::sort(log.bands.begin(), log.bands.end());
    ASSERT_EQ(log.bands.size(), std::min<std::size_t>(n, 8)) << n;
    EXPECT_EQ(log.bands.front().first, 0u) << n;
    EXPECT_EQ(log.bands.back().second, n) << n;
    for (std::size_t b = 0; b < log.bands.size(); ++b) {
      EXPECT_LT(log.bands[b].first, log.bands[b].second) << n;
      if (b + 1 < log.bands.size()) {
        EXPECT_EQ(log.bands[b].second, log.bands[b + 1].first) << n;
      }
    }
  }
}

TEST(FanOut, InlinePathDoesNotAllocate) {
  ThreadPool one(1);
  ThreadPool two(2);
  double sum = 0.0;
  const auto add_index = [&sum](std::size_t i) {
    sum += static_cast<double>(i);
  };
  const auto add_band = [&sum](std::size_t i0, std::size_t i1) {
    sum += static_cast<double>(i1 - i0);
  };
  const long before = g_heap_allocations.load(std::memory_order_relaxed);
  for_each_index(nullptr, 64, add_index);
  for_each_band(nullptr, 64, add_band);
  for_each_index(&one, 64, add_index);
  for_each_band(&one, 64, add_band);
  for_each_index(&two, 1, add_index);
  for_each_band(&two, 1, add_band);
  const long after = g_heap_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before);
  EXPECT_EQ(sum, 2.0 * (63.0 * 64.0 / 2.0) + 2.0 * 64.0 + 1.0);
}

TEST(PoolThreadsEnv, UnsetMeansHardwareConcurrency) {
  EXPECT_EQ(pool_threads_from_env(nullptr), 0u);
}

TEST(PoolThreadsEnv, AcceptsWholeNumbersUpToTheCap) {
  EXPECT_EQ(pool_threads_from_env("1"), 1u);
  EXPECT_EQ(pool_threads_from_env("4"), 4u);
  EXPECT_EQ(pool_threads_from_env("1024"), kMaxPoolThreads);
}

TEST(PoolThreadsEnv, RejectsEverythingElseByName) {
  for (const char* bad : {"4x", "abc", "0", "-3", "", "1025", " 4", "+4",
                          "4.0", "99999999999999999999999"}) {
    try {
      (void)pool_threads_from_env(bad);
      ADD_FAILURE() << "accepted \"" << bad << "\"";
    } catch (const CheckError& e) {
      EXPECT_NE(std::string(e.what()).find("ARAMS_POOL_THREADS"),
                std::string::npos)
          << e.what();
    }
  }
}

Matrix shard_data(std::size_t rows, std::size_t d, std::uint64_t seed) {
  Matrix m(rows, d);
  Rng rng(seed);
  for (std::size_t i = 0; i < rows; ++i) {
    rng.fill_normal(m.row(i));
  }
  return m;
}

enum class MergeKind { kTree, kSerial };

struct ShardedRun {
  Matrix sketch;
  core::MergeStats merge_stats;
};

/// One FD sketch (ℓ = 8) per shard — sketched on `pool` when given — then
/// the selected reduction, also on `pool` for the tree.
ShardedRun sketch_and_merge(const std::vector<Matrix>& shards,
                            MergeKind merge, ThreadPool* pool = nullptr) {
  constexpr std::size_t kEll = 8;
  std::vector<Matrix> sketches(shards.size());
  const auto sketch_shard = [&](std::size_t c) {
    core::FrequentDirections fd(core::FdConfig{kEll, /*fast=*/true});
    fd.append_batch(shards[c]);
    fd.compress();
    sketches[c] = fd.sketch();
  };
  for_each_index(pool, shards.size(), sketch_shard);
  ShardedRun run;
  run.sketch = merge == MergeKind::kTree
                   ? core::tree_merge(std::move(sketches), kEll, 2,
                                      &run.merge_stats, pool)
                   : core::serial_merge(std::move(sketches), kEll,
                                        &run.merge_stats);
  return run;
}

std::vector<Matrix> shard_set(std::size_t cores, std::size_t rows,
                              std::size_t d, std::uint64_t seed) {
  std::vector<Matrix> shards;
  for (std::size_t c = 0; c < cores; ++c) {
    shards.push_back(shard_data(rows, d, c + seed));
  }
  return shards;
}

TEST(VirtualCores, ZeroCoresThrows) {
  EXPECT_THROW(sketch_and_merge({}, MergeKind::kTree), CheckError);
}

TEST(VirtualCores, SingleCoreSkipsMerge) {
  const ShardedRun r = sketch_and_merge(shard_set(1, 50, 10, 1),
                                        MergeKind::kTree);
  EXPECT_EQ(r.merge_stats.merge_ops, 0);
  EXPECT_EQ(r.merge_stats.critical_path_ops, 0);
  EXPECT_LE(r.sketch.rows(), 8u);
}

class StrategyCores
    : public ::testing::TestWithParam<std::tuple<MergeKind, int>> {};

TEST_P(StrategyCores, SketchSatisfiesGlobalGuarantee) {
  const auto [merge, cores] = GetParam();
  const std::vector<Matrix> shards =
      shard_set(static_cast<std::size_t>(cores), 40, 12, 100);
  Matrix full;
  for (const Matrix& s : shards) full = Matrix::vstack(full, s);
  const ShardedRun r = sketch_and_merge(shards, merge);

  Rng power(3);
  const double err = linalg::covariance_error(full, r.sketch, power, 150);
  const double bound = linalg::frobenius_norm_squared(full) / 8.0;
  EXPECT_LE(err, 2.0 * bound);
  EXPECT_EQ(r.merge_stats.merge_ops, cores - 1);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, StrategyCores,
    ::testing::Combine(::testing::Values(MergeKind::kTree,
                                         MergeKind::kSerial),
                       ::testing::Values(1, 2, 4, 8)));

TEST(VirtualCores, TreeBeatsSerialOnCriticalPath) {
  const std::vector<Matrix> shards = shard_set(16, 30, 10, 7);
  const ShardedRun tree = sketch_and_merge(shards, MergeKind::kTree);
  const ShardedRun serial = sketch_and_merge(shards, MergeKind::kSerial);
  EXPECT_EQ(tree.merge_stats.critical_path_ops, 4);     // log2(16)
  EXPECT_EQ(serial.merge_stats.critical_path_ops, 15);  // P − 1
  // Same total merge work.
  EXPECT_EQ(tree.merge_stats.merge_ops, serial.merge_stats.merge_ops);
}

TEST(VirtualCores, ThreadedRunMatchesSequentialSketchQuality) {
  const std::vector<Matrix> shards = shard_set(4, 40, 10, 55);
  Matrix full;
  for (const Matrix& s : shards) full = Matrix::vstack(full, s);
  ThreadPool pool(4);
  const ShardedRun threaded = sketch_and_merge(shards, MergeKind::kTree,
                                               &pool);
  const ShardedRun inline_run = sketch_and_merge(shards, MergeKind::kTree);
  EXPECT_EQ(Matrix::max_abs_diff(threaded.sketch, inline_run.sketch), 0.0);
  Rng power(5);
  const double err =
      linalg::covariance_error(full, threaded.sketch, power, 150);
  EXPECT_LE(err, 2.0 * linalg::frobenius_norm_squared(full) / 8.0);
}

TEST(VirtualCores, TreePoolExecutesTheMergeForReal) {
  // On a multi-worker pool the reduction really runs concurrently: its
  // groups are dispatched, its wall is measured, and the sketch and the
  // reduction's accounting are bitwise those of the inline run.
  const std::vector<Matrix> shards = shard_set(8, 30, 10, 200);
  ThreadPool pool(4);
  const ShardedRun inline_run = sketch_and_merge(shards, MergeKind::kTree);
  const ShardedRun pooled = sketch_and_merge(shards, MergeKind::kTree,
                                             &pool);

  EXPECT_EQ(Matrix::max_abs_diff(pooled.sketch, inline_run.sketch), 0.0);
  EXPECT_EQ(pooled.merge_stats.merge_ops, inline_run.merge_stats.merge_ops);
  EXPECT_EQ(pooled.merge_stats.critical_path_ops,
            inline_run.merge_stats.critical_path_ops);
  EXPECT_EQ(pooled.merge_stats.parallel_groups, 6);  // 4 + 2; root inline
  EXPECT_EQ(inline_run.merge_stats.parallel_groups, 0);
  EXPECT_GT(pooled.merge_stats.critical_path_seconds_measured, 0.0);
}

TEST(VirtualCores, MakespanDecomposes) {
  // Run inline, the measured merge makespan contains every shrink it ran.
  const std::vector<Matrix> shards = shard_set(8, 30, 10, 0);
  for (const MergeKind merge : {MergeKind::kTree, MergeKind::kSerial}) {
    const core::MergeStats stats = sketch_and_merge(shards, merge).merge_stats;
    EXPECT_GT(stats.total_seconds, 0.0);
    EXPECT_GE(stats.critical_path_seconds_measured, stats.total_seconds);
  }
}

}  // namespace
}  // namespace arams::parallel
