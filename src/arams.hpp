#pragma once
// arams.hpp — umbrella header for the stable public surface of the ARAMS
// library. Examples and tools include this one header instead of reaching
// into per-subsystem internals; anything not exported here is an
// implementation detail whose layout may change between releases.
//
// Exported surface:
//   core      Arams / AramsConfig / AramsResult, the pluggable Sketcher
//             interface + make_sketcher factory, sketch merging
//   stream    MonitoringPipeline, StreamingMonitor, sources, diagnostics,
//             DAQ event building
//   parallel  ThreadPool (the shared pool shards and merges run on)
//   obs       MetricsRegistry, ScopedSpan traces, StageReport
//   data      synthetic LCLS workload generators
//   embed     embedding quality metrics + HTML scatter export
//   image     frame type, preprocessing, calibration
//   io        .frames bundles and .npy matrices
//   linalg    user-facing error estimators (covariance error, trace est.)
//   util      CLI flags, CSV tables, stopwatch, checks

#include "cluster/metrics.hpp"
#include "core/arams_sketch.hpp"
#include "core/merge.hpp"
#include "core/sketcher.hpp"
#include "data/beam_profile.hpp"
#include "data/diffraction.hpp"
#include "data/speckle.hpp"
#include "data/synthetic.hpp"
#include "embed/metrics.hpp"
#include "embed/scatter_html.hpp"
#include "image/calibration.hpp"
#include "image/image.hpp"
#include "image/preprocess.hpp"
#include "io/frames.hpp"
#include "io/npy.hpp"
#include "linalg/blas.hpp"
#include "linalg/norms.hpp"
#include "linalg/trace_est.hpp"
#include "obs/build_info.hpp"
#include "obs/export_prom.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/health.hpp"
#include "obs/metrics.hpp"
#include "obs/postmortem.hpp"
#include "obs/profiler.hpp"
#include "obs/stage_report.hpp"
#include "obs/trace.hpp"
#include "obs/window.hpp"
#include "parallel/thread_pool.hpp"
#include "stream/bounded_queue.hpp"
#include "stream/diagnostics.hpp"
#include "stream/event_builder.hpp"
#include "stream/monitor.hpp"
#include "stream/pipeline.hpp"
#include "stream/source.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/stopwatch.hpp"
