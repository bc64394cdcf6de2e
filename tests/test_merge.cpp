// Sketch merging (Section IV-C + appendix): mergeability property — the
// merged sketch must satisfy the same covariance bound against the full
// data — and the critical-path accounting that drives Figs. 2–3.

#include <gtest/gtest.h>

#include <cmath>

#include "core/fd.hpp"
#include "core/merge.hpp"
#include "linalg/blas.hpp"
#include "linalg/norms.hpp"
#include "obs/stage_report.hpp"
#include "parallel/thread_pool.hpp"
#include "rng/rng.hpp"
#include "util/check.hpp"

namespace arams::core {
namespace {

using linalg::Matrix;

Matrix random_matrix(std::size_t r, std::size_t c, Rng& rng) {
  Matrix m(r, c);
  for (std::size_t i = 0; i < r; ++i) {
    rng.fill_normal(m.row(i));
  }
  return m;
}

/// Sketches each shard with FD at the given ℓ.
std::vector<Matrix> sketch_shards(const std::vector<Matrix>& shards,
                                  std::size_t ell) {
  std::vector<Matrix> out;
  out.reserve(shards.size());
  for (const auto& shard : shards) {
    FrequentDirections fd(FdConfig{ell, true});
    fd.append_batch(shard);
    fd.compress();
    out.push_back(fd.sketch());
  }
  return out;
}

TEST(Merge, EmptyInputThrows) {
  EXPECT_THROW(merge_group({}, 4), CheckError);
  EXPECT_THROW(serial_merge({}, 4), CheckError);
  EXPECT_THROW(tree_merge({}, 4), CheckError);
}

TEST(Merge, SingleSketchPassesThrough) {
  Rng rng(1);
  const Matrix s = random_matrix(3, 5, rng);
  MergeStats stats;
  const Matrix out = serial_merge({s}, 4, &stats);
  EXPECT_EQ(Matrix::max_abs_diff(out, s), 0.0);
  EXPECT_EQ(stats.merge_ops, 0);
}

TEST(Merge, GroupMergeBoundsRows) {
  Rng rng(2);
  std::vector<Matrix> sketches;
  for (int i = 0; i < 3; ++i) {
    sketches.push_back(random_matrix(4, 6, rng));
  }
  const Matrix merged = merge_group(sketches, 4);
  EXPECT_LE(merged.rows(), 4u);
  EXPECT_EQ(merged.cols(), 6u);
}

TEST(Merge, TreeArityBelowTwoThrows) {
  Rng rng(3);
  std::vector<Matrix> s{random_matrix(2, 3, rng), random_matrix(2, 3, rng)};
  EXPECT_THROW(tree_merge(std::move(s), 4, 1), CheckError);
}

class MergeProperty : public ::testing::TestWithParam<int> {};

TEST_P(MergeProperty, MergedSketchKeepsFdGuarantee) {
  const int num_shards = GetParam();
  constexpr std::size_t kEll = 10;
  Rng rng(static_cast<std::uint64_t>(num_shards));
  std::vector<Matrix> shards;
  Matrix full;
  for (int s = 0; s < num_shards; ++s) {
    Matrix shard = random_matrix(40, 12, rng);
    full = Matrix::vstack(full, shard);
    shards.push_back(std::move(shard));
  }
  const auto sketches = sketch_shards(shards, kEll);

  const double bound =
      linalg::frobenius_norm_squared(full) / static_cast<double>(kEll);
  for (const bool tree : {false, true}) {
    auto copies = sketches;
    MergeStats stats;
    const Matrix merged =
        tree ? tree_merge(std::move(copies), kEll, 2, &stats)
             : serial_merge(std::move(copies), kEll, &stats);
    EXPECT_LE(merged.rows(), kEll);
    Rng power(42);
    const double err = linalg::covariance_error(full, merged, power, 150);
    // Merging at most doubles the one-pass bound (each shrink discards
    // ≥ ℓ·δ mass from the *combined* stream); the ‖A‖²_F/ℓ form still
    // holds and is what we assert, with 2× slack for the merge layers.
    EXPECT_LE(err, 2.0 * bound);
  }
}

TEST_P(MergeProperty, TreeAndSerialErrorsComparable) {
  const int num_shards = GetParam();
  if (num_shards < 2) return;
  constexpr std::size_t kEll = 8;
  Rng rng(static_cast<std::uint64_t>(num_shards) * 17);
  std::vector<Matrix> shards;
  Matrix full;
  for (int s = 0; s < num_shards; ++s) {
    Matrix shard = random_matrix(30, 10, rng);
    full = Matrix::vstack(full, shard);
    shards.push_back(std::move(shard));
  }
  const auto sketches = sketch_shards(shards, kEll);

  auto c1 = sketches;
  auto c2 = sketches;
  const Matrix serial = serial_merge(std::move(c1), kEll);
  const Matrix tree = tree_merge(std::move(c2), kEll);
  Rng p1(5), p2(5);
  const double err_serial = linalg::covariance_error(full, serial, p1, 150);
  const double err_tree = linalg::covariance_error(full, tree, p2, 150);
  // Fig. 3's claim: the tree error tracks the serial error closely.
  EXPECT_LT(err_tree, 2.0 * err_serial + 1e-9);
  EXPECT_LT(err_serial, 2.0 * err_tree + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, MergeProperty,
                         ::testing::Values(1, 2, 3, 4, 8, 16));

TEST(Merge, SerialCriticalPathIsLinear) {
  Rng rng(6);
  std::vector<Matrix> sketches;
  for (int i = 0; i < 16; ++i) {
    sketches.push_back(random_matrix(4, 8, rng));
  }
  MergeStats stats;
  serial_merge(std::move(sketches), 4, &stats);
  EXPECT_EQ(stats.merge_ops, 15);
  EXPECT_EQ(stats.critical_path_ops, 15);
}

TEST(Merge, TreeCriticalPathIsLogarithmic) {
  Rng rng(7);
  std::vector<Matrix> sketches;
  for (int i = 0; i < 16; ++i) {
    sketches.push_back(random_matrix(4, 8, rng));
  }
  MergeStats stats;
  tree_merge(std::move(sketches), 4, 2, &stats);
  EXPECT_EQ(stats.merge_ops, 15);      // same total work
  EXPECT_EQ(stats.levels, 4);          // log2(16)
  EXPECT_EQ(stats.critical_path_ops, 4);
}

TEST(Merge, TreeArityReducesLevels) {
  Rng rng(8);
  std::vector<Matrix> sketches;
  for (int i = 0; i < 16; ++i) {
    sketches.push_back(random_matrix(3, 6, rng));
  }
  MergeStats stats4;
  tree_merge(std::move(sketches), 4, 4, &stats4);
  EXPECT_EQ(stats4.levels, 2);  // log4(16)
}

TEST(Merge, OddShardCountHandled) {
  Rng rng(9);
  std::vector<Matrix> sketches;
  for (int i = 0; i < 7; ++i) {
    sketches.push_back(random_matrix(3, 5, rng));
  }
  MergeStats stats;
  const Matrix merged = tree_merge(std::move(sketches), 4, 2, &stats);
  EXPECT_LE(merged.rows(), 4u);
  EXPECT_EQ(stats.levels, 3);  // 7 → 4 → 2 → 1
}

/// The binary tree built by hand from merge_group: each level merges
/// adjacent pairs and carries an odd tail into the next level as the lone
/// member of its own group.
Matrix reference_tree(std::vector<Matrix> level, std::size_t ell) {
  while (level.size() > 1) {
    std::vector<Matrix> next;
    for (std::size_t g = 0; g < level.size(); g += 2) {
      std::vector<Matrix> group{level[g]};
      if (g + 1 < level.size()) group.push_back(level[g + 1]);
      next.push_back(merge_group(group, ell));
    }
    level = std::move(next);
  }
  return std::move(level.front());
}

TEST(Merge, ParallelTreeIsBitwiseTreeAtAnyPoolSize) {
  // The reduction structure — group membership, stack order, shrink math —
  // is fixed; a pool decides only when a group runs. So tree_merge is
  // bitwise the hand-built reference with no pool and on any pool size.
  for (const int inputs : {4, 7, 16}) {
    Rng rng(static_cast<std::uint64_t>(inputs) + 11);
    std::vector<Matrix> sketches;
    for (int i = 0; i < inputs; ++i) {
      sketches.push_back(random_matrix(4, 8, rng));
    }
    const Matrix expected = reference_tree(sketches, 4);
    ASSERT_GT(expected.rows(), 0u);

    EXPECT_EQ(Matrix::max_abs_diff(tree_merge(sketches, 4), expected), 0.0)
        << "inputs=" << inputs << " no pool";
    for (const std::size_t threads :
         {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
      parallel::ThreadPool pool(threads);
      const Matrix pooled = tree_merge(sketches, 4, 2, nullptr, &pool);
      EXPECT_EQ(Matrix::max_abs_diff(pooled, expected), 0.0)
          << "inputs=" << inputs << " threads=" << threads;
    }
  }
}

TEST(Merge, ParallelTreeKeepsTreeAccountingAndMeasuresWall) {
  Rng rng(12);
  std::vector<Matrix> sketches;
  for (int i = 0; i < 16; ++i) {
    sketches.push_back(random_matrix(4, 8, rng));
  }
  MergeStats stats;
  tree_merge(sketches, 4, 2, &stats);
  EXPECT_EQ(stats.merge_ops, 15);
  EXPECT_EQ(stats.levels, 4);
  EXPECT_EQ(stats.critical_path_ops, 4);
  EXPECT_GT(stats.critical_path_seconds_measured, 0.0);
  // Inline execution dispatches nothing.
  EXPECT_EQ(stats.parallel_groups, 0);

  // On a multi-worker pool every level with >1 group is dispatched:
  // 16 → 8 + 4 + 2 dispatched groups, the final lone group runs inline.
  // The accounting of the reduction itself does not change.
  parallel::ThreadPool pool(4);
  MergeStats pooled;
  tree_merge(sketches, 4, 2, &pooled, &pool);
  EXPECT_EQ(pooled.parallel_groups, 14);
  EXPECT_EQ(pooled.merge_ops, stats.merge_ops);
  EXPECT_EQ(pooled.levels, stats.levels);
  EXPECT_EQ(pooled.critical_path_ops, stats.critical_path_ops);
  EXPECT_GT(pooled.critical_path_seconds_measured, 0.0);
}

TEST(Merge, PooledLevelRethrowsOnlyAfterEveryGroupFinished) {
  // Both level-0 groups fail their width check on the pool. The caller
  // must wait for every queued group (they reference the caller's frame)
  // before rethrowing, and the pool stays usable afterwards.
  Rng rng(5);
  std::vector<Matrix> bad;
  for (const std::size_t cols : {8, 9, 8, 9}) {
    bad.push_back(random_matrix(4, cols, rng));
  }
  parallel::ThreadPool pool(2);
  EXPECT_THROW(tree_merge(bad, 4, 2, nullptr, &pool), CheckError);

  std::vector<Matrix> good;
  for (int i = 0; i < 4; ++i) good.push_back(random_matrix(4, 8, rng));
  EXPECT_EQ(Matrix::max_abs_diff(tree_merge(good, 4, 2, nullptr, &pool),
                                 tree_merge(good, 4)),
            0.0);
}

TEST(Merge, StatsRoundTripThroughStageReport) {
  Rng rng(14);
  std::vector<Matrix> sketches;
  for (int i = 0; i < 8; ++i) {
    sketches.push_back(random_matrix(4, 8, rng));
  }
  parallel::ThreadPool pool(2);
  MergeStats stats;
  tree_merge(std::move(sketches), 4, 2, &stats, &pool);

  obs::StageReport report;
  append_to_report(stats, report);
  EXPECT_EQ(report.counter("merge_ops"), stats.merge_ops);
  EXPECT_EQ(report.counter("merge_levels"), stats.levels);
  EXPECT_EQ(report.counter("merge_critical_path_ops"),
            stats.critical_path_ops);
  EXPECT_EQ(report.counter("merge_parallel_groups"), stats.parallel_groups);
  EXPECT_EQ(report.seconds("merge"), stats.total_seconds);
  EXPECT_EQ(report.seconds("merge_critical_path_measured"),
            stats.critical_path_seconds_measured);
}

TEST(Merge, MergedSketchHasNoZeroRows) {
  Rng rng(10);
  std::vector<Matrix> sketches;
  for (int i = 0; i < 4; ++i) {
    sketches.push_back(random_matrix(5, 7, rng));
  }
  const Matrix merged = tree_merge(std::move(sketches), 5);
  for (std::size_t i = 0; i < merged.rows(); ++i) {
    EXPECT_GT(linalg::norm2(merged.row(i)), 0.0);
  }
}

TEST(Merge, GroupShrinkIsTheStreamingShrink) {
  // A merge and the streaming sketch run one shrink kernel, so merging a
  // single stack equals feeding it to FD and compressing, bit for bit.
  Rng rng(13);
  const Matrix wide = random_matrix(16, 40, rng);
  // Rank 3 in d = 5 < ℓ: δ = 0, and both must drop the two null directions
  // (col 3 = c0 + c1, col 4 = c1 − 2·c2) at the noise floor.
  Matrix low_rank = random_matrix(12, 5, rng);
  for (std::size_t i = 0; i < low_rank.rows(); ++i) {
    low_rank(i, 3) = low_rank(i, 0) + low_rank(i, 1);
    low_rank(i, 4) = low_rank(i, 1) - 2.0 * low_rank(i, 2);
  }
  const Matrix* inputs[] = {&wide, &low_rank};
  for (const Matrix* x : inputs) {
    constexpr std::size_t kEll = 8;
    FrequentDirections fd(FdConfig{kEll, true});
    fd.append_batch(*x);
    fd.compress();
    const Matrix streamed = fd.sketch();
    const Matrix merged = merge_group({*x}, kEll);
    ASSERT_EQ(merged.rows(), streamed.rows()) << "cols=" << x->cols();
    ASSERT_EQ(merged.cols(), streamed.cols());
    EXPECT_EQ(Matrix::max_abs_diff(merged, streamed), 0.0)
        << "cols=" << x->cols();
  }
  EXPECT_EQ(merge_group({low_rank}, 8).rows(), 3u);
}

}  // namespace
}  // namespace arams::core
