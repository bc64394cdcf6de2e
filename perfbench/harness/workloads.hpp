#pragma once
// The three benchmark workloads. Each builds its inputs from the seed,
// drives the library through its public facades from one closed-loop
// producer thread for `options.seconds`, checks the outputs, and returns
// the end-to-end metrics (untraced run) or the per-layer metrics (traced
// run, options.trace).

#include "measure.hpp"

namespace perfbench {

RunResult run_stream_ingest(const RunOptions& options);
RunResult run_stream_snapshot(const RunOptions& options);
RunResult run_batch_diffraction(const RunOptions& options);

}  // namespace perfbench
