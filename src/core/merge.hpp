#pragma once
// Sketch merging (Section IV-C and the appendix).
//
// FD sketches are mergeable summaries: stacking two ℓ-row sketches and
// running one FD shrink yields an ℓ-row sketch of the union with the same
// space/error trade-off. Every merge stacks its inputs into workspace
// scratch and runs core::shrink_rows, the streaming sketch's own shrink, on
// stacks of more than ℓ rows. serial_merge folds P sketches one at a time
// (P−1 shrinks on the critical path — the bottleneck the paper identifies);
// tree_merge reduces them level by level (⌈log_a P⌉ shrink *rounds* on the
// critical path), which is what makes the Fig. 2 scaling linear.

#include <vector>

#include "linalg/matrix.hpp"
#include "obs/stage_report.hpp"

namespace arams::parallel {
class ThreadPool;
}  // namespace arams::parallel

namespace arams::core {

struct MergeStats {
  long merge_ops = 0;           ///< total pairwise/group shrinks performed
  long levels = 0;              ///< reduction rounds (tree) / steps (serial)
  long critical_path_ops = 0;   ///< shrinks a real parallel run would wait on
  long parallel_groups = 0;     ///< merge groups actually dispatched to a pool
  double total_seconds = 0.0;   ///< wall time of all shrinks (work)
  /// Measured makespan: real wall time of the reduction as executed (the
  /// sum of per-level wall times — with a pool this is the actual
  /// concurrent schedule, otherwise the serial execution wall).
  double critical_path_seconds_measured = 0.0;
};

/// Folds merge counters/timings into a StageReport (stages "merge" and
/// "merge_critical_path_measured").
inline void append_to_report(const MergeStats& stats,
                             obs::StageReport& report) {
  report.add_counter("merge_ops", stats.merge_ops);
  report.add_counter("merge_levels", stats.levels);
  report.add_counter("merge_critical_path_ops", stats.critical_path_ops);
  report.add_counter("merge_parallel_groups", stats.parallel_groups);
  report.add_seconds("merge", stats.total_seconds);
  report.add_seconds("merge_critical_path_measured",
                     stats.critical_path_seconds_measured);
}

/// Merges a group of sketches into one ℓ-row sketch with a single FD
/// shrink of their vertical stack. Column counts must match.
linalg::Matrix merge_group(const std::vector<linalg::Matrix>& sketches,
                           std::size_t ell);

/// Sequential fold: sketches arrive at one core and are merged one by one.
linalg::Matrix serial_merge(std::vector<linalg::Matrix> sketches,
                            std::size_t ell, MergeStats* stats = nullptr);

/// Branching reduction with the given arity (default binary). Each level
/// merges disjoint groups, so only one shrink per level is on the critical
/// path (critical_path_ops = ⌈log_a P⌉). With a `pool` of more than one
/// thread every level's groups run concurrently on it; otherwise they run
/// inline on the calling thread. Group g of a level owns scratch arena g
/// and writes result slot g, so the reduction is bitwise identical at any
/// thread count — scheduling decides only *when* a group runs, never what
/// it computes.
linalg::Matrix tree_merge(std::vector<linalg::Matrix> sketches,
                          std::size_t ell, std::size_t arity = 2,
                          MergeStats* stats = nullptr,
                          parallel::ThreadPool* pool = nullptr);

}  // namespace arams::core
