#pragma once
// Operation counters shared by all sketching classes. The scaling study
// (Figs. 2–3) argues in terms of SVD/rotation counts on the critical path;
// these counters make that argument checkable exactly.
//
// Result structs carry an obs::StageReport rather than SketchStats; the
// helpers below convert between the two (the batch facade sums per-shard
// reports back into SketchStats this way).

#include "obs/stage_report.hpp"

namespace arams::core {

struct SketchStats {
  long rows_processed = 0;   ///< rows appended to the sketch
  long svd_count = 0;        ///< shrink (rotation) operations performed
  long rank_increases = 0;   ///< rank-adaptation events (RA variants)
  long probe_count = 0;      ///< Gaussian probes spent on error estimation
  double shrink_seconds = 0.0;  ///< wall time inside shrinks
  double total_seconds = 0.0;   ///< wall time inside append/process calls

  SketchStats& operator+=(const SketchStats& o) {
    rows_processed += o.rows_processed;
    svd_count += o.svd_count;
    rank_increases += o.rank_increases;
    probe_count += o.probe_count;
    shrink_seconds += o.shrink_seconds;
    total_seconds += o.total_seconds;
    return *this;
  }
};

/// Folds the counters into a StageReport (counters add; the two wall-clock
/// entries land under the "shrink" and "fd" stages).
inline void append_to_report(const SketchStats& stats,
                             obs::StageReport& report) {
  report.add_counter("rows_processed", stats.rows_processed);
  report.add_counter("svd_count", stats.svd_count);
  report.add_counter("rank_increases", stats.rank_increases);
  report.add_counter("probe_count", stats.probe_count);
  report.add_seconds("shrink", stats.shrink_seconds);
  report.add_seconds("fd", stats.total_seconds);
}

/// Inverse of append_to_report: reads the counters back out of a report.
inline SketchStats sketch_stats_from_report(const obs::StageReport& report) {
  SketchStats stats;
  stats.rows_processed = report.counter("rows_processed");
  stats.svd_count = report.counter("svd_count");
  stats.rank_increases = report.counter("rank_increases");
  stats.probe_count = report.counter("probe_count");
  stats.shrink_seconds = report.seconds("shrink");
  stats.total_seconds = report.seconds("fd");
  return stats;
}

}  // namespace arams::core
