#include "core/merge.hpp"

#include <algorithm>
#include <memory>
#include <string>

#include "core/fd.hpp"
#include "linalg/workspace.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "util/check.hpp"
#include "util/stopwatch.hpp"

namespace arams::core {

using linalg::Matrix;
using linalg::MatrixView;

namespace {

/// Per-merge scratch: one workspace + SVD output pair serves every shrink
/// in a merge call, so repeated reductions reuse the same arenas instead
/// of allocating Gram/eig buffers per level. tree_merge holds one per
/// concurrent group slot — workspaces are not thread-safe.
struct MergeScratch {
  linalg::Workspace ws;
  linalg::SigmaVt svd;
};

/// One FD shrink of `stacked` down to its surviving rows (at most ℓ−1,
/// matching Algorithm 2) — the streaming sketch's own kernel. A stack that
/// already fits in ℓ rows passes through unshrunk.
Matrix shrink_to_ell(MatrixView stacked, std::size_t ell,
                     MergeScratch& scratch) {
  if (stacked.rows() <= ell) return stacked.to_matrix();
  Matrix out(std::min(ell, stacked.cols()), stacked.cols());
  out.reshape(shrink_rows(stacked, ell, scratch.ws, scratch.svd, out),
              stacked.cols());
  return out;
}

/// Stacks sketches [begin, end) into the workspace's merge-stack slot and
/// returns a view — the allocation-free replacement for chained vstack.
MatrixView stack_group(const std::vector<Matrix>& sketches, std::size_t begin,
                       std::size_t end, linalg::Workspace& ws) {
  // Row-less sketches (an empty shard's 0×0) add nothing and fix no width.
  std::size_t cols = sketches[begin].cols();
  std::size_t rows = 0;
  for (std::size_t i = begin; i < end; ++i) {
    if (sketches[i].rows() == 0) continue;
    if (rows == 0) cols = sketches[i].cols();
    ARAMS_CHECK(sketches[i].cols() == cols,
                "merge of sketches with mismatched widths");
    rows += sketches[i].rows();
  }
  Matrix& stacked = ws.mat(linalg::wslot::kMergeStack, rows, cols);
  std::size_t at = 0;
  for (std::size_t i = begin; i < end; ++i) {
    for (std::size_t r = 0; r < sketches[i].rows(); ++r) {
      stacked.set_row(at++, sketches[i].row(r));
    }
  }
  return MatrixView(stacked);
}

}  // namespace

Matrix merge_group(const std::vector<Matrix>& sketches, std::size_t ell) {
  ARAMS_CHECK(!sketches.empty(), "merge of zero sketches");
  MergeScratch scratch;
  return shrink_to_ell(
      stack_group(sketches, 0, sketches.size(), scratch.ws), ell, scratch);
}

Matrix serial_merge(std::vector<Matrix> sketches, std::size_t ell,
                    MergeStats* stats) {
  ARAMS_CHECK(!sketches.empty(), "merge of zero sketches");
  const obs::ScopedSpan span("merge.serial");
  static obs::Counter& merge_ops = obs::metrics().counter("merge.ops");
  MergeStats local;
  MergeScratch scratch;
  Stopwatch wall;
  // Folds in place: slot i receives the merge of slots i−1 and i.
  for (std::size_t i = 1; i < sketches.size(); ++i) {
    Stopwatch timer;
    merge_ops.add(1);
    sketches[i] = shrink_to_ell(stack_group(sketches, i - 1, i + 1, scratch.ws),
                                ell, scratch);
    const double s = timer.seconds();
    ++local.merge_ops;
    ++local.levels;
    // Serial merging happens on one core: every shrink is on the critical
    // path.
    ++local.critical_path_ops;
    local.total_seconds += s;
  }
  local.critical_path_seconds_measured = wall.seconds();
  if (stats != nullptr) *stats = local;
  return std::move(sketches.back());
}

Matrix tree_merge(std::vector<Matrix> sketches, std::size_t ell,
                  std::size_t arity, MergeStats* stats,
                  parallel::ThreadPool* pool) {
  ARAMS_CHECK(!sketches.empty(), "merge of zero sketches");
  ARAMS_CHECK(arity >= 2, "tree arity must be >= 2");
  const obs::ScopedSpan span("merge.tree");
  static obs::Counter& merge_ops = obs::metrics().counter("merge.ops");
  static obs::Counter& groups_dispatched =
      obs::metrics().counter("merge.parallel_groups");
  MergeStats local;
  // One scratch arena per concurrent group slot, sized by the widest level
  // (the first) and reused down the tree. Group g always uses arena g, so
  // the arena→group mapping — and therefore every shrink input — is
  // independent of the pool schedule.
  const std::size_t max_groups = (sketches.size() + arity - 1) / arity;
  std::vector<std::unique_ptr<MergeScratch>> scratch;
  scratch.reserve(max_groups);
  for (std::size_t g = 0; g < max_groups; ++g) {
    scratch.push_back(std::make_unique<MergeScratch>());
  }
  std::vector<double> group_seconds(max_groups, 0.0);
  Stopwatch wall;
  while (sketches.size() > 1) {
    const obs::ScopedSpan level_span(
        "merge.level" + std::to_string(local.levels));
    const std::size_t groups = (sketches.size() + arity - 1) / arity;
    std::vector<Matrix> next(groups);
    Stopwatch level_timer;
    const auto run_group = [&](std::size_t g) {
      Stopwatch timer;
      MergeScratch& sc = *scratch[g];
      const std::size_t begin = g * arity;
      const std::size_t end = std::min(begin + arity, sketches.size());
      next[g] = shrink_to_ell(stack_group(sketches, begin, end, sc.ws), ell,
                              sc);
      group_seconds[g] = timer.seconds();
    };
    if (parallel::fans_out(pool, groups)) {
      local.parallel_groups += static_cast<long>(groups);
      groups_dispatched.add(static_cast<long>(groups));
    }
    parallel::for_each_index(pool, groups, run_group);
    merge_ops.add(static_cast<long>(groups));
    local.merge_ops += static_cast<long>(groups);
    for (std::size_t g = 0; g < groups; ++g) {
      local.total_seconds += group_seconds[g];
    }
    ++local.levels;
    ++local.critical_path_ops;
    local.critical_path_seconds_measured += level_timer.seconds();
    sketches = std::move(next);
  }
  if (stats != nullptr) *stats = local;
  return std::move(sketches.front());
}

}  // namespace arams::core
