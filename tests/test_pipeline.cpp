// Integration tests: the full Fig. 4 monitoring pipeline end to end on both
// synthetic LCLS workloads.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <utility>
#include <vector>

#include "cluster/metrics.hpp"
#include "core/arams_sketch.hpp"
#include "core/merge.hpp"
#include "embed/metrics.hpp"
#include "image/image.hpp"
#include "linalg/blas.hpp"
#include "obs/flight_recorder.hpp"
#include "stream/pipeline.hpp"
#include "stream/source.hpp"
#include "util/check.hpp"

namespace arams::stream {
namespace {

PipelineConfig fast_pipeline() {
  PipelineConfig config;
  config.sketch.ell = 12;
  config.sketch.rank_adaptive = false;
  config.sketch.use_sampling = true;
  config.sketch.beta = 0.9;
  config.num_cores = 2;
  config.pca_components = 8;
  config.umap.n_neighbors = 10;
  config.umap.n_epochs = 120;
  config.optics.min_pts = 5;
  config.abod_k = 8;
  return config;
}

TEST(Pipeline, ValidatesConfig) {
  PipelineConfig config = fast_pipeline();
  config.num_cores = 0;
  EXPECT_THROW(MonitoringPipeline{config}, CheckError);
  config = fast_pipeline();
  config.pca_components = 0;
  EXPECT_THROW(MonitoringPipeline{config}, CheckError);
}

TEST(Pipeline, ValidateReportsEveryProblem) {
  PipelineConfig config = fast_pipeline();
  EXPECT_TRUE(config.validate().empty());
  config.num_cores = 0;
  config.pca_components = 0;
  config.sketch.ell = 1;
  const std::vector<std::string> errors = config.validate();
  EXPECT_GE(errors.size(), 3u);  // all problems listed, not just the first
  for (const auto& e : errors) {
    EXPECT_FALSE(e.empty());
  }
}

TEST(Pipeline, EmptyInputThrows) {
  const MonitoringPipeline pipeline(fast_pipeline());
  EXPECT_THROW(pipeline.analyze(std::vector<image::ImageF>{}), CheckError);
}

TEST(Pipeline, BeamProfileEndToEndShapes) {
  data::BeamProfileConfig beam;
  beam.height = 24;
  beam.width = 24;
  BeamProfileSource source(beam, 120, 120.0, 1);
  const auto events = drain(source, 120);

  const MonitoringPipeline pipeline(fast_pipeline());
  const PipelineResult result = pipeline.analyze_events(events);

  EXPECT_EQ(result.latent.rows(), 120u);
  EXPECT_EQ(result.latent.cols(), 8u);
  EXPECT_EQ(result.embedding.rows(), 120u);
  EXPECT_EQ(result.embedding.cols(), 2u);
  EXPECT_EQ(result.labels.size(), 120u);
  EXPECT_EQ(result.outlier_scores.size(), 120u);
  EXPECT_GT(result.sketch.rows(), 0u);
  EXPECT_GT(result.report.seconds("sketch"), 0.0);
  EXPECT_GT(result.report.seconds("embed"), 0.0);

  // Event entry point carries shot ids through to the result rows.
  ASSERT_EQ(result.shot_ids.size(), 120u);
  EXPECT_EQ(result.shot_ids.front(), events.front().shot_id);
  EXPECT_EQ(result.shot_ids.back(), events.back().shot_id);

  // Every Fig. 4 stage reports its wall-clock through the StageReport.
  for (const char* stage :
       {"preprocess", "sketch", "project", "embed", "cluster"}) {
    EXPECT_TRUE(result.report.has_stage(stage)) << stage;
  }
  EXPECT_GT(result.report.counter("svd_count"), 0);
}

TEST(Pipeline, JournalsOneStageCompletePerStage) {
  data::BeamProfileConfig beam;
  beam.height = 16;
  beam.width = 16;
  BeamProfileSource source(beam, 80, 120.0, 4);
  std::vector<image::ImageF> frames;
  for (auto& event : drain(source, 80)) {
    frames.push_back(std::move(event.frame));
  }

  // A marker on this thread's journal: its timestamp and journal ordinal
  // select exactly the events the analyze() below writes on this thread.
  constexpr std::uint64_t kMarkerShot = 0x57a6e;
  obs::flight_recorder().record(obs::FlightCode::kCustom, kMarkerShot);
  const PipelineResult result =
      MonitoringPipeline(fast_pipeline()).analyze(frames);

  const std::vector<obs::FlightEvent> events = obs::flight_recorder().drain();
  const auto marker = std::find_if(
      events.rbegin(), events.rend(), [](const obs::FlightEvent& e) {
        return e.code == obs::FlightCode::kCustom && e.shot_id == kMarkerShot;
      });
  ASSERT_NE(marker, events.rend());
  std::vector<obs::FlightEvent> stages;
  for (const auto& e : events) {
    if (e.code == obs::FlightCode::kStageComplete &&
        e.thread == marker->thread && e.t_seconds >= marker->t_seconds) {
      stages.push_back(e);
    }
  }
  // detail is the FlightStage id: 1 preprocess … 5 cluster.
  const char* const names[] = {"preprocess", "sketch", "project", "embed",
                               "cluster"};
  ASSERT_EQ(stages.size(), std::size(names));
  for (std::size_t i = 0; i < stages.size(); ++i) {
    EXPECT_EQ(stages[i].detail, i + 1) << names[i];
    EXPECT_EQ(stages[i].value, result.report.seconds(names[i])) << names[i];
  }
}

TEST(Pipeline, DiffractionClassesRecovered) {
  data::DiffractionConfig diff;
  diff.height = 32;
  diff.width = 32;
  diff.num_classes = 3;
  diff.photons_per_frame = 4e4;
  DiffractionSource source(diff, 180, 120.0, 2);
  const auto events = drain(source, 180);
  std::vector<int> truth;
  truth.reserve(events.size());
  for (const auto& e : events) truth.push_back(e.truth_label);

  PipelineConfig config = fast_pipeline();
  config.preprocess.center = false;  // rings are already centered
  const MonitoringPipeline pipeline(config);
  const PipelineResult result = pipeline.analyze_events(events);

  // The unsupervised clusters must align with the latent classes well
  // above chance (the Fig. 6 claim, quantified).
  const double ari = cluster::adjusted_rand_index(result.labels, truth);
  EXPECT_GT(ari, 0.5);
}

TEST(Pipeline, MatrixEntryPointSkipsPreprocessing) {
  linalg::Matrix rows(60, 30);
  Rng rng(3);
  for (std::size_t i = 0; i < 60; ++i) {
    rng.fill_normal(rows.row(i));
  }
  PipelineConfig config = fast_pipeline();
  config.umap.n_neighbors = 8;
  const MonitoringPipeline pipeline(config);
  const PipelineResult result = pipeline.analyze_matrix(rows);
  EXPECT_EQ(result.report.seconds("preprocess"), 0.0);
  EXPECT_EQ(result.embedding.rows(), 60u);
}

TEST(Pipeline, MoreCoresSameQuality) {
  data::BeamProfileConfig beam;
  beam.height = 20;
  beam.width = 20;
  BeamProfileSource source(beam, 96, 120.0, 4);
  const auto events = drain(source, 96);

  PipelineConfig one = fast_pipeline();
  one.num_cores = 1;
  PipelineConfig four = fast_pipeline();
  four.num_cores = 4;

  const PipelineResult r1 = MonitoringPipeline(one).analyze_events(events);
  const PipelineResult r4 = MonitoringPipeline(four).analyze_events(events);
  // Both runs preserve neighbourhood structure comparably.
  const double t1 =
      embed::trustworthiness(r1.latent, r1.embedding, 8);
  const double t4 =
      embed::trustworthiness(r4.latent, r4.embedding, 8);
  EXPECT_GT(t1, 0.75);
  EXPECT_GT(t4, 0.75);
  // The 4-core run actually merged sketches.
  EXPECT_GT(r4.report.counter("merge_ops"), 0);
}

TEST(Pipeline, AbodDisabledWhenKZero) {
  linalg::Matrix rows(40, 10);
  Rng rng(5);
  for (std::size_t i = 0; i < 40; ++i) {
    rng.fill_normal(rows.row(i));
  }
  PipelineConfig config = fast_pipeline();
  config.abod_k = 0;
  config.umap.n_neighbors = 8;
  const PipelineResult result =
      MonitoringPipeline(config).analyze_matrix(rows);
  EXPECT_TRUE(result.outlier_scores.empty());
}

TEST(Pipeline, HdbscanBackendRecoversClasses) {
  data::DiffractionConfig diff;
  diff.height = 32;
  diff.width = 32;
  diff.num_classes = 3;
  diff.photons_per_frame = 4e4;
  DiffractionSource source(diff, 180, 120.0, 7);
  const auto events = drain(source, 180);
  std::vector<int> truth;
  for (const auto& e : events) truth.push_back(e.truth_label);

  PipelineConfig config = fast_pipeline();
  config.cluster_method = PipelineConfig::ClusterMethod::kHdbscan;
  config.preprocess.center = false;
  const PipelineResult result =
      MonitoringPipeline(config).analyze_events(events);
  EXPECT_GT(cluster::adjusted_rand_index(result.labels, truth), 0.5);
}

TEST(Pipeline, KmeansBackendRecoversClassesAtKnownK) {
  data::DiffractionConfig diff;
  diff.height = 32;
  diff.width = 32;
  diff.num_classes = 3;
  diff.photons_per_frame = 4e4;
  // ARI on this chaotic UMAP→kmeans chain swings ~0.55–1.0 across data
  // seeds regardless of numerics; this seed separates cleanly, leaving the
  // 0.6 gate margin against benign perturbations (e.g. a different but
  // equally valid eigenbasis from the symmetric eigensolver).
  DiffractionSource source(diff, 150, 120.0, 7);
  const auto events = drain(source, 150);
  std::vector<int> truth;
  for (const auto& e : events) truth.push_back(e.truth_label);

  PipelineConfig config = fast_pipeline();
  config.cluster_method = PipelineConfig::ClusterMethod::kKmeans;
  config.kmeans.k = 3;
  config.preprocess.center = false;
  const PipelineResult result =
      MonitoringPipeline(config).analyze_events(events);
  EXPECT_EQ(cluster::cluster_count(result.labels), 3u);
  EXPECT_GT(cluster::adjusted_rand_index(result.labels, truth), 0.6);
}

TEST(Pipeline, ThreadedShardingMatchesShapes) {
  // shards > 1 ingests through ShardedSketcher on the shared pool.
  linalg::Matrix rows(80, 20);
  Rng rng(8);
  for (std::size_t i = 0; i < 80; ++i) {
    rng.fill_normal(rows.row(i));
  }
  PipelineConfig config = fast_pipeline();
  config.shards = 4;
  config.umap.n_neighbors = 8;
  const PipelineResult result =
      MonitoringPipeline(config).analyze_matrix(rows);
  EXPECT_EQ(result.embedding.rows(), 80u);
  EXPECT_EQ(result.report.counter("shards"), 4);
  EXPECT_GT(result.report.counter("merge_ops"), 0);
}

/// Binary tree of merge_group calls, level by level: adjacent pairs merge,
/// an odd tail is carried as the lone member of its own group.
linalg::Matrix reference_tree(std::vector<linalg::Matrix> level,
                              std::size_t ell) {
  while (level.size() > 1) {
    std::vector<linalg::Matrix> next;
    for (std::size_t g = 0; g < level.size(); g += 2) {
      std::vector<linalg::Matrix> group{level[g]};
      if (g + 1 < level.size()) group.push_back(level[g + 1]);
      next.push_back(core::merge_group(group, ell));
    }
    level = std::move(next);
  }
  return std::move(level.front());
}

TEST(Pipeline, DefaultBatchSketchIsRangePartitionPlusTreeMerge) {
  // The default batch facade (arams, num_cores = 4, fp64): row range c of
  // 4 goes to an Arams instance seeded seed + c, and the shard sketches
  // are tree-merged at the largest final ℓ.
  linalg::Matrix rows(203, 24);
  Rng rng(31);
  for (std::size_t i = 0; i < rows.rows(); ++i) {
    rng.fill_normal(rows.row(i));
  }
  const PipelineConfig config;
  ASSERT_EQ(config.num_cores, 4u);
  ASSERT_EQ(config.shards, 1u);

  std::vector<linalg::Matrix> sketches;
  std::size_t final_ell = config.sketch.ell;
  for (std::size_t c = 0; c < 4; ++c) {
    core::AramsConfig shard = config.sketch;
    shard.seed = config.sketch.seed + c;
    core::AramsResult part = core::Arams(shard).sketch_matrix(
        rows.slice_rows(c * rows.rows() / 4, (c + 1) * rows.rows() / 4));
    final_ell = std::max(final_ell, part.final_ell);
    sketches.push_back(std::move(part.sketch));
  }
  const linalg::Matrix expected = reference_tree(sketches, final_ell);

  const PipelineResult result =
      MonitoringPipeline(config).analyze_matrix(rows);
  EXPECT_EQ(result.final_ell, final_ell);
  ASSERT_EQ(result.sketch.rows(), expected.rows());
  EXPECT_EQ(linalg::Matrix::max_abs_diff(result.sketch, expected), 0.0);
  EXPECT_EQ(result.report.counter("merge_ops"), 3);
}

TEST(Pipeline, F32LaneRunsTheSameRangePartition) {
  // Default arams over num_cores = 4 with sampling off: the fp32 lane
  // range-partitions and tree-merges exactly like the fp64 lane, and since
  // fp32 rows widen exactly at the FD boundary the two sketches agree
  // bitwise.
  linalg::MatrixF rows32(400, 40);
  Rng rng(37);
  std::vector<double> scratch(rows32.cols());
  for (std::size_t i = 0; i < rows32.rows(); ++i) {
    rng.fill_normal(scratch);
    std::transform(scratch.begin(), scratch.end(), rows32.row(i).begin(),
                   [](double v) { return static_cast<float>(v); });
  }
  linalg::Matrix rows64;
  linalg::widen(rows32, rows64);

  PipelineConfig config = fast_pipeline();
  config.sketch = core::AramsConfig{};
  config.sketch.use_sampling = false;
  config.num_cores = 4;
  const MonitoringPipeline pipeline(config);
  const PipelineResult r32 =
      pipeline.analyze_matrix(linalg::MatrixViewF(rows32));
  const PipelineResult r64 = pipeline.analyze_matrix(rows64);
  EXPECT_EQ(r32.report.counter("merge_ops"), 3);
  EXPECT_EQ(r64.report.counter("merge_ops"), 3);
  EXPECT_EQ(r32.report.counter("rows_ingested_f32"), 400);
  EXPECT_EQ(r32.final_ell, r64.final_ell);
  ASSERT_EQ(r32.sketch.rows(), r64.sketch.rows());
  ASSERT_EQ(r32.sketch.cols(), r64.sketch.cols());
  EXPECT_EQ(linalg::Matrix::max_abs_diff(r32.sketch, r64.sketch), 0.0);
}

TEST(Pipeline, F32FramesRunEndToEnd) {
  // The mixed-precision ingest lane through the frame entry point: fp32
  // frames preprocess in fp32 and enter the sketcher through its fp32
  // seam; every downstream stage (PCA/UMAP/cluster) is unchanged fp64.
  data::BeamProfileConfig beam;
  beam.height = 24;
  beam.width = 24;
  BeamProfileSource source(beam, 100, 120.0, 11);
  const auto events = drain(source, 100);
  std::vector<image::ImageF32> frames;
  frames.reserve(events.size());
  for (const auto& e : events) frames.push_back(image::narrow(e.frame));

  const MonitoringPipeline pipeline(fast_pipeline());
  const PipelineResult result = pipeline.analyze(frames);
  EXPECT_EQ(result.latent.rows(), 100u);
  EXPECT_EQ(result.embedding.rows(), 100u);
  EXPECT_EQ(result.labels.size(), 100u);
  EXPECT_GT(result.sketch.rows(), 0u);
  EXPECT_GT(result.report.seconds("preprocess"), 0.0);
  // The lane's audit trail: every row went through the fp32 seam.
  EXPECT_EQ(result.report.counter("rows_ingested_f32"), 100);
  EXPECT_THROW(pipeline.analyze(std::vector<image::ImageF32>{}), CheckError);
}

TEST(Pipeline, IngestPrecisionF32NarrowsAtTheDoor) {
  // Same fp64 frames through both configs: kF32 must narrow on entry and
  // land within the lane's pinned drift budget of the fp64 run.
  data::BeamProfileConfig beam;
  beam.height = 24;
  beam.width = 24;
  BeamProfileSource source(beam, 80, 120.0, 12);
  const auto events = drain(source, 80);
  std::vector<image::ImageF> frames;
  frames.reserve(events.size());
  for (const auto& e : events) frames.push_back(e.frame);

  // Both lanes run the same stage-2 topology for any backend. Pin fd so
  // the comparison isolates the rows' precision: arams's fp32 priority
  // sampler reduces row norms in a different (multi-accumulator) order, so
  // its rescaled survivors agree with the fp64 lane's only to rounding.
  PipelineConfig f64_config = fast_pipeline();
  f64_config.sketcher = "fd";
  PipelineConfig f32_config = f64_config;
  f32_config.ingest_precision = PipelineConfig::IngestPrecision::kF32;
  const PipelineResult r32 = MonitoringPipeline(f32_config).analyze(frames);
  const PipelineResult r64 = MonitoringPipeline(f64_config).analyze(frames);
  EXPECT_EQ(r32.report.counter("rows_ingested_f32"), 80);
  EXPECT_EQ(r64.report.counter("rows_ingested_f32"), 0);
  ASSERT_EQ(r32.embedding.rows(), r64.embedding.rows());
  // Compare the covariance estimates the sketches carry (the embeddings
  // themselves go through UMAP's stochastic optimizer, where a one-ulp
  // input difference is amplified arbitrarily).
  const linalg::Matrix g32 = linalg::gram_cols(r32.sketch);
  const linalg::Matrix g64 = linalg::gram_cols(r64.sketch);
  ASSERT_EQ(g32.rows(), g64.rows());
  EXPECT_LE(linalg::Matrix::max_abs_diff(g32, g64),
            1e-5 * (1.0 + linalg::frobenius_norm(g64)));
}

TEST(Pipeline, F32MatrixEntryPointSkipsPreprocessing) {
  linalg::MatrixF rows(60, 30);
  Rng rng(13);
  std::vector<double> scratch(30);
  for (std::size_t i = 0; i < 60; ++i) {
    rng.fill_normal(scratch);
    auto dst = rows.row(i);
    for (std::size_t j = 0; j < 30; ++j) {
      dst[j] = static_cast<float>(scratch[j]);
    }
  }
  PipelineConfig config = fast_pipeline();
  config.umap.n_neighbors = 8;
  const MonitoringPipeline pipeline(config);
  const PipelineResult result =
      pipeline.analyze_matrix(linalg::MatrixViewF(rows));
  EXPECT_EQ(result.report.seconds("preprocess"), 0.0);
  EXPECT_EQ(result.embedding.rows(), 60u);
  EXPECT_EQ(result.report.counter("rows_ingested_f32"), 60);
}

TEST(Pipeline, RankAdaptiveModeRunsEndToEnd) {
  linalg::Matrix rows(150, 25);
  Rng rng(6);
  for (std::size_t i = 0; i < 150; ++i) {
    rng.fill_normal(rows.row(i));
  }
  PipelineConfig config = fast_pipeline();
  config.sketch.rank_adaptive = true;
  config.sketch.ell = 8;
  config.sketch.epsilon = 0.15;
  const PipelineResult result =
      MonitoringPipeline(config).analyze_matrix(rows);
  EXPECT_GE(result.final_ell, 8u);
  EXPECT_EQ(result.embedding.rows(), 150u);
}

}  // namespace
}  // namespace arams::stream
