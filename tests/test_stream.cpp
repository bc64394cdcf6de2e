// Streaming substrate: sources, throughput meter, streaming monitor.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "obs/metrics.hpp"
#include "stream/monitor.hpp"
#include "stream/source.hpp"
#include "util/check.hpp"

namespace arams::stream {
namespace {

data::BeamProfileConfig small_beam() {
  data::BeamProfileConfig config;
  config.height = 24;
  config.width = 24;
  config.noise = 0.0;
  return config;
}

TEST(Source, BeamProfileEmitsExactlyTotal) {
  BeamProfileSource source(small_beam(), 7, 120.0, 1);
  std::size_t count = 0;
  while (source.next().has_value()) ++count;
  EXPECT_EQ(count, 7u);
}

TEST(Source, TimestampsAdvanceAtRate) {
  BeamProfileSource source(small_beam(), 5, 120.0, 2);
  double prev = -1.0;
  while (auto event = source.next()) {
    EXPECT_GT(event->timestamp_seconds, prev);
    prev = event->timestamp_seconds;
  }
  EXPECT_NEAR(prev, 4.0 / 120.0, 1e-12);
}

TEST(Source, ShotIdsAreSequential) {
  BeamProfileSource source(small_beam(), 4, 60.0, 3);
  std::uint64_t expected = 0;
  while (auto event = source.next()) {
    EXPECT_EQ(event->shot_id, expected++);
  }
}

TEST(Source, DiffractionCarriesTruthLabel) {
  data::DiffractionConfig config;
  config.height = 24;
  config.width = 24;
  DiffractionSource source(config, 10, 120.0, 4);
  while (auto event = source.next()) {
    EXPECT_GE(event->truth_label, 0);
    EXPECT_LT(event->truth_label, 4);
  }
}

TEST(Source, DrainRespectsCount) {
  BeamProfileSource source(small_beam(), 20, 120.0, 5);
  const auto events = drain(source, 8);
  EXPECT_EQ(events.size(), 8u);
  const auto rest = drain(source, 100);
  EXPECT_EQ(rest.size(), 12u);
}

TEST(Source, InvalidRateThrows) {
  EXPECT_THROW(BeamProfileSource(small_beam(), 5, 0.0, 6), CheckError);
}

TEST(ThroughputMeter, ComputesRate) {
  ThroughputMeter meter;
  meter.record(100, 2.0);
  meter.record(50, 1.0);
  EXPECT_DOUBLE_EQ(meter.frames_per_second(), 50.0);
  EXPECT_EQ(meter.total_frames(), 150u);
}

TEST(ThroughputMeter, ZeroTimeGivesZeroRate) {
  const ThroughputMeter meter;
  EXPECT_EQ(meter.frames_per_second(), 0.0);
}

TEST(ThroughputMeter, ZeroDurationRecordsGiveZeroRateNotInf) {
  // Regression: a burst recorded faster than the clock tick must yield a
  // finite rate, never inf/NaN from dividing by zero accumulated seconds.
  ThroughputMeter meter;
  meter.record(100, 0.0);
  EXPECT_EQ(meter.frames_per_second(), 0.0);
  EXPECT_TRUE(std::isfinite(meter.frames_per_second()));
  EXPECT_EQ(meter.total_frames(), 100u);
  meter.record(50, 2.0);  // once real time accumulates, the rate recovers
  EXPECT_DOUBLE_EQ(meter.frames_per_second(), 75.0);
}

MonitorConfig small_monitor() {
  MonitorConfig config;
  config.batch_size = 16;
  config.reservoir_size = 128;
  config.pipeline.sketch.ell = 8;
  config.pipeline.sketch.rank_adaptive = false;
  config.pipeline.sketch.use_sampling = false;
  config.pipeline.pca_components = 5;
  config.pipeline.umap.n_neighbors = 8;
  config.pipeline.umap.n_epochs = 60;
  config.pipeline.preprocess.downsample_factor = 1;
  return config;
}

TEST(Monitor, IngestTriggersUpdateAtBatchBoundary) {
  StreamingMonitor monitor(small_monitor());
  BeamProfileSource source(small_beam(), 33, 120.0, 7);
  int updates = 0;
  while (auto event = source.next()) {
    if (monitor.ingest(*event)) ++updates;
  }
  EXPECT_EQ(updates, 2);  // 33 frames / 16 per batch
  EXPECT_EQ(monitor.sketch_stats().rows_processed, 32);
  monitor.flush();
  EXPECT_EQ(monitor.sketch_stats().rows_processed, 33);
}

TEST(Monitor, SnapshotBeforeDataThrows) {
  StreamingMonitor monitor(small_monitor());
  EXPECT_THROW(monitor.snapshot(), CheckError);
}

TEST(Monitor, SnapshotShapesConsistent) {
  StreamingMonitor monitor(small_monitor());
  BeamProfileSource source(small_beam(), 80, 120.0, 8);
  while (auto event = source.next()) {
    monitor.ingest(*event);
  }
  monitor.flush();
  const SnapshotResult snap = monitor.snapshot();
  EXPECT_EQ(snap.latent.rows(), 80u);
  EXPECT_EQ(snap.latent.cols(), 5u);
  EXPECT_EQ(snap.embedding.rows(), 80u);
  EXPECT_EQ(snap.embedding.cols(), 2u);
  EXPECT_EQ(snap.labels.size(), 80u);
  EXPECT_EQ(snap.shot_ids.size(), 80u);
  EXPECT_EQ(snap.shot_ids.front(), 0u);
  EXPECT_EQ(snap.shot_ids.back(), 79u);
}

TEST(Monitor, SnapshotHonoursClusterMethod) {
  // The snapshot labels come from the configured clusterer (pipeline stage
  // 5), not from OPTICS regardless of cluster_method.
  MonitorConfig config = small_monitor();
  config.pipeline.cluster_method = PipelineConfig::ClusterMethod::kKmeans;
  config.pipeline.kmeans.k = 3;
  StreamingMonitor monitor(config);
  BeamProfileSource source(small_beam(), 80, 120.0, 8);
  while (auto event = source.next()) {
    monitor.ingest(*event);
  }
  monitor.flush();
  const SnapshotResult snap = monitor.snapshot();
  EXPECT_EQ(snap.labels, cluster::kmeans(snap.embedding, config.pipeline.kmeans)
                             .labels);
}

TEST(Monitor, ReservoirEvictsOldest) {
  MonitorConfig config = small_monitor();
  config.reservoir_size = 32;
  StreamingMonitor monitor(config);
  BeamProfileSource source(small_beam(), 50, 120.0, 9);
  while (auto event = source.next()) {
    monitor.ingest(*event);
  }
  monitor.flush();
  const SnapshotResult snap = monitor.snapshot();
  EXPECT_EQ(snap.shot_ids.size(), 32u);
  EXPECT_EQ(snap.shot_ids.front(), 18u);  // 50 − 32
  EXPECT_EQ(snap.shot_ids.back(), 49u);
}

TEST(Monitor, IncrementalSnapshotKeepsReferenceCoordinates) {
  StreamingMonitor monitor(small_monitor());
  BeamProfileSource source(small_beam(), 120, 120.0, 20);
  const auto events = drain(source, 120);
  for (std::size_t i = 0; i < 80; ++i) {
    monitor.ingest(events[i]);
  }
  monitor.flush();
  const SnapshotResult full = monitor.snapshot();

  // Stream 20 more shots, refresh incrementally.
  for (std::size_t i = 80; i < 100; ++i) {
    monitor.ingest(events[i]);
  }
  monitor.flush();
  const SnapshotResult inc = monitor.snapshot_incremental();
  EXPECT_EQ(inc.embedding.rows(), 100u);

  // Shots from the full snapshot kept their exact coordinates.
  for (std::size_t i = 0; i < full.shot_ids.size(); ++i) {
    for (std::size_t j = 0; j < inc.shot_ids.size(); ++j) {
      if (inc.shot_ids[j] == full.shot_ids[i]) {
        EXPECT_EQ(inc.embedding(j, 0), full.embedding(i, 0));
        EXPECT_EQ(inc.embedding(j, 1), full.embedding(i, 1));
      }
    }
  }
  EXPECT_EQ(inc.labels.size(), 100u);
}

TEST(Monitor, WarmIndexInsertsInsteadOfRebuilding) {
  // The no-rebuild contract: the reference kNN index is built once by the
  // full snapshot, then grown with insert() on every incremental refresh —
  // builds stays at 1 while inserted_rows tracks the appended shots.
  StreamingMonitor monitor(small_monitor());
  BeamProfileSource source(small_beam(), 140, 120.0, 22);
  const auto events = drain(source, 140);
  for (std::size_t i = 0; i < 80; ++i) {
    monitor.ingest(events[i]);
  }
  monitor.flush();
  EXPECT_EQ(monitor.reference_index(), nullptr);
  (void)monitor.snapshot();
  ASSERT_NE(monitor.reference_index(), nullptr);
  EXPECT_EQ(monitor.reference_index()->stats().builds, 1);
  EXPECT_EQ(monitor.reference_index()->stats().inserted_rows, 0);
  EXPECT_EQ(monitor.reference_index()->size(), 80u);

  for (std::size_t i = 80; i < 110; ++i) {
    monitor.ingest(events[i]);
  }
  monitor.flush();
  (void)monitor.snapshot_incremental();
  EXPECT_EQ(monitor.reference_index()->stats().builds, 1);
  EXPECT_EQ(monitor.reference_index()->stats().inserted_rows, 30);
  EXPECT_EQ(monitor.reference_index()->size(), 110u);

  for (std::size_t i = 110; i < 140; ++i) {
    monitor.ingest(events[i]);
  }
  monitor.flush();
  (void)monitor.snapshot_incremental();
  EXPECT_EQ(monitor.reference_index()->stats().builds, 1);
  EXPECT_EQ(monitor.reference_index()->stats().inserted_rows, 60);
  EXPECT_EQ(monitor.reference_index()->size(), 140u);

  // A full snapshot re-anchors the reference and rebuilds the index (the
  // auto backend re-dispatches on rebuild, so its counters start over:
  // one fresh build, no inserts, reservoir-sized).
  (void)monitor.snapshot();
  EXPECT_EQ(monitor.reference_index()->stats().builds, 1);
  EXPECT_EQ(monitor.reference_index()->stats().inserted_rows, 0);
  EXPECT_EQ(monitor.reference_index()->size(), 128u);
}

TEST(Monitor, F32IngestLaneEndToEnd) {
  // The mixed-precision lane through the streaming monitor: frames narrow
  // at ingest, preprocess in fp32 and queue float rows for the sketcher;
  // the reservoir/error-tracker tail stays fp64, so snapshots keep their
  // shapes and the rows all reach the sketch.
  MonitorConfig config = small_monitor();
  config.pipeline.ingest_precision = PipelineConfig::IngestPrecision::kF32;
  StreamingMonitor monitor(config);
  EXPECT_EQ(obs::metrics().gauge("ingest.precision").value(), 32.0);
  BeamProfileSource source(small_beam(), 80, 120.0, 8);
  int updates = 0;
  while (auto event = source.next()) {
    if (monitor.ingest(*event)) ++updates;
  }
  EXPECT_EQ(updates, 5);  // 80 frames / 16 per batch
  monitor.flush();
  EXPECT_EQ(monitor.sketch_stats().rows_processed, 80);
  const SnapshotResult snap = monitor.snapshot();
  EXPECT_EQ(snap.latent.rows(), 80u);
  EXPECT_EQ(snap.embedding.rows(), 80u);
  EXPECT_EQ(snap.labels.size(), 80u);

  // The NaN firewall runs on the raw fp64 frame before narrowing, so the
  // fp32 lane rejects non-finite shots exactly like the classic lane.
  ShotEvent bad;
  bad.shot_id = 999;
  bad.frame = image::ImageF(8, 8);
  bad.frame.at(3, 3) = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(monitor.ingest(bad));
  EXPECT_EQ(monitor.sketch_stats().rows_processed, 80);
}

TEST(Monitor, F32LaneTracksF64ErrorEstimate) {
  // Same stream through both lanes: the operator-facing reconstruction
  // error gauge must agree far inside the lane's drift budget (the inputs
  // differ only by fp32 preprocessing rounding, ~1e-6 relative).
  BeamProfileSource source(small_beam(), 64, 120.0, 30);
  const auto events = drain(source, 64);

  MonitorConfig f32_config = small_monitor();
  f32_config.pipeline.ingest_precision =
      PipelineConfig::IngestPrecision::kF32;
  StreamingMonitor m64(small_monitor());
  StreamingMonitor m32(f32_config);
  for (const auto& event : events) {
    m64.ingest(event);
    m32.ingest(event);
  }
  m64.flush();
  m32.flush();
  const double e64 = m64.sketch_error_estimate();
  const double e32 = m32.sketch_error_estimate();
  EXPECT_GE(e32, 0.0);
  EXPECT_NEAR(e32, e64, 1e-4);
}

TEST(Monitor, IncrementalWithoutReferenceFallsBackToFull) {
  StreamingMonitor monitor(small_monitor());
  BeamProfileSource source(small_beam(), 40, 120.0, 21);
  while (auto event = source.next()) {
    monitor.ingest(*event);
  }
  monitor.flush();
  const SnapshotResult snap = monitor.snapshot_incremental();
  EXPECT_EQ(snap.embedding.rows(), 40u);
}

TEST(Monitor, ThroughputAccountsEveryFrame) {
  StreamingMonitor monitor(small_monitor());
  BeamProfileSource source(small_beam(), 40, 120.0, 10);
  while (auto event = source.next()) {
    monitor.ingest(*event);
  }
  EXPECT_EQ(monitor.throughput().total_frames(), 40u);
  EXPECT_GT(monitor.throughput().frames_per_second(), 0.0);
}

TEST(Monitor, SketchErrorEstimateIsSmallForLowRankStream) {
  StreamingMonitor monitor(small_monitor());
  BeamProfileSource source(small_beam(), 100, 120.0, 22);
  while (auto event = source.next()) {
    monitor.ingest(*event);
  }
  monitor.flush();
  const double err = monitor.sketch_error_estimate();
  EXPECT_GE(err, 0.0);
  // Beam profiles are highly compressible: ℓ=8 captures most of the mass.
  EXPECT_LT(err, 0.5);
}

TEST(Monitor, FrameShapeChangeThrows) {
  StreamingMonitor monitor(small_monitor());
  BeamProfileSource source(small_beam(), 1, 120.0, 11);
  monitor.ingest(*source.next());
  data::BeamProfileConfig other = small_beam();
  other.width = 32;
  BeamProfileSource source2(other, 1, 120.0, 12);
  EXPECT_THROW(monitor.ingest(*source2.next()), CheckError);
}

}  // namespace
}  // namespace arams::stream
