// Figure-shape regression tests: miniature versions of each EXPERIMENTS.md
// claim, so the reproduction itself is guarded by ctest. Each test asserts
// the paper's *qualitative* shape at a size that runs in well under a
// second.

#include <gtest/gtest.h>

#include <cmath>

#include "cluster/kmeans.hpp"
#include "cluster/metrics.hpp"
#include "core/arams_sketch.hpp"
#include "core/fd.hpp"
#include "core/merge.hpp"
#include "embed/pca.hpp"
#include "embed/umap.hpp"
#include "image/preprocess.hpp"
#include "data/beam_profile.hpp"
#include "data/synthetic.hpp"
#include "embed/metrics.hpp"
#include "linalg/blas.hpp"
#include "linalg/norms.hpp"
#include "stream/pipeline.hpp"
#include "stream/source.hpp"
#include "util/stopwatch.hpp"

namespace arams {
namespace {

using linalg::Matrix;

Matrix fig1_dataset(std::uint64_t seed) {
  data::SyntheticConfig config;
  config.n = 900;
  config.d = 120;
  config.spectrum.kind = data::DecayKind::kExponential;
  config.spectrum.count = 60;
  config.spectrum.rate = 0.08;
  Rng rng(seed);
  return data::make_low_rank(config, rng);
}

TEST(Fig1Shape, PrioritySamplingReducesWorkAtMatchedError) {
  const Matrix a = fig1_dataset(1);
  core::AramsConfig with;
  with.use_sampling = true;
  with.beta = 0.8;
  with.rank_adaptive = false;
  with.ell = 30;
  core::AramsConfig without = with;
  without.use_sampling = false;

  core::Arams s1(with), s2(without);
  const auto r1 = s1.sketch_matrix(a);
  const auto r2 = s2.sketch_matrix(a);
  // PS processes ~20% fewer rows → fewer rotations.
  EXPECT_LT(r1.report.counter("rows_processed"),
            r2.report.counter("rows_processed"));
  EXPECT_LE(r1.report.counter("svd_count"), r2.report.counter("svd_count"));
  // …at comparable reconstruction error.
  Rng p1(2), p2(2);
  // Both errors sit near the noise floor of this small instance; PS must
  // stay the same order of magnitude.
  const double e1 = linalg::covariance_error_relative(a, r1.sketch, p1, 60);
  const double e2 = linalg::covariance_error_relative(a, r2.sketch, p2, 60);
  EXPECT_LT(e1, 5.0 * e2 + 5e-3);
}

TEST(Fig1Shape, RankAdaptiveMeetsItsErrorContract) {
  const Matrix a = fig1_dataset(3);
  for (const double epsilon : {0.1, 0.05, 0.02}) {
    core::AramsConfig config;
    config.use_sampling = false;
    config.rank_adaptive = true;
    config.ell = 8;
    config.epsilon = epsilon;
    core::Arams sketcher(config);
    core::Arams& s = sketcher;
    s.sketch_matrix(a);
    const Matrix basis = s.basis(s.current_ell());
    const double achieved =
        linalg::projection_residual_exact(a, basis) /
        linalg::frobenius_norm_squared(a);
    // The heuristic targets the *batch* residual; the full-stream residual
    // lands within a small factor of the requested ε.
    EXPECT_LT(achieved, 3.0 * epsilon);
  }
}

/// Sketches 16 equal row ranges of `a` with FD (ℓ = 16), one per core.
std::vector<Matrix> sixteen_shard_sketches(const Matrix& a) {
  std::vector<Matrix> sketches;
  for (std::size_t c = 0; c < 16; ++c) {
    core::FrequentDirections fd(core::FdConfig{16, /*fast=*/true});
    fd.append_batch(a.slice_rows(c * a.rows() / 16, (c + 1) * a.rows() / 16));
    fd.compress();
    sketches.push_back(fd.sketch());
  }
  return sketches;
}

TEST(Fig2Shape, TreeMakespanBeatsSerialAtScale) {
  // The makespan argument in its deterministic form: over 16 shards the
  // tree puts log2(16) = 4 shrinks on the critical path where the serial
  // fold puts 15, for the same total work. The wall-clock claim is gated
  // by the merge_scaling check (min over repetitions on real cores).
  data::SyntheticConfig dc;
  dc.n = 2048;
  dc.d = 128;
  dc.spectrum.kind = data::DecayKind::kCubic;
  dc.spectrum.count = 64;
  Rng rng(4);
  const Matrix a = data::make_low_rank(dc, rng);
  const std::vector<Matrix> sketches = sixteen_shard_sketches(a);

  core::MergeStats tree;
  core::MergeStats serial;
  core::tree_merge(sketches, 16, 2, &tree);
  core::serial_merge(sketches, 16, &serial);
  EXPECT_EQ(tree.critical_path_ops, 4);
  EXPECT_EQ(serial.critical_path_ops, 15);
  EXPECT_EQ(tree.merge_ops, serial.merge_ops);
}

TEST(Fig3Shape, TreeErrorTracksSerialError) {
  data::SyntheticConfig dc;
  dc.n = 1024;
  dc.d = 96;
  dc.spectrum.kind = data::DecayKind::kCubic;
  dc.spectrum.count = 48;
  dc.noise = 3e-3;
  Rng rng(5);
  const Matrix a = data::make_low_rank(dc, rng);
  const std::vector<Matrix> sketches = sixteen_shard_sketches(a);

  const auto error = [&](const Matrix& sketch) {
    Rng power(6);
    return linalg::covariance_error_relative(a, sketch, power, 40);
  };
  const double tree = error(core::tree_merge(sketches, 16));
  const double serial = error(core::serial_merge(sketches, 16));
  EXPECT_LT(tree, 1.5 * serial + 1e-9);
  EXPECT_LT(serial, 1.5 * tree + 1e-9);
}

TEST(Fig5Shape, PointingModeRecoversCenterOfMass) {
  data::BeamProfileConfig beam;
  beam.height = 24;
  beam.width = 24;
  beam.exotic_prob = 0.0;
  Rng rng(7);
  const auto samples = data::generate_beam_profiles(beam, 220, rng);
  std::vector<image::ImageF> images;
  std::vector<double> com_x;
  for (const auto& s : samples) {
    images.push_back(s.frame);
    com_x.push_back(s.truth.com_x);
  }
  stream::PipelineConfig config;
  config.sketch.ell = 16;
  config.num_cores = 2;
  config.pca_components = 8;
  config.umap.n_neighbors = 12;
  config.umap.n_epochs = 120;
  config.preprocess.center = false;
  const auto result =
      stream::MonitoringPipeline(config).analyze(images);
  double best = 0.0;
  for (std::size_t axis = 0; axis < 2; ++axis) {
    best = std::max(best, std::abs(embed::axis_factor_correlation(
                              result.embedding, axis, com_x)));
  }
  EXPECT_GT(best, 0.5);
}

TEST(Fig6Shape, DiffractionClassesSeparateUnsupervised) {
  data::DiffractionConfig diff;
  diff.height = 28;
  diff.width = 28;
  diff.num_classes = 3;
  diff.photons_per_frame = 4e4;
  stream::DiffractionSource source(diff, 150, 120.0, 8);
  const auto events = stream::drain(source, 150);
  std::vector<int> truth;
  for (const auto& e : events) truth.push_back(e.truth_label);

  stream::PipelineConfig config;
  config.sketch.ell = 16;
  config.num_cores = 2;
  config.pca_components = 8;
  config.umap.n_neighbors = 12;
  config.umap.n_epochs = 120;
  config.preprocess.center = false;
  config.cluster_method = stream::PipelineConfig::ClusterMethod::kHdbscan;
  const auto result =
      stream::MonitoringPipeline(config).analyze_events(events);
  EXPECT_GT(cluster::adjusted_rand_index(result.labels, truth), 0.4);
}

TEST(RuntimeShape, PipelineOutrunsTheDetectorRate) {
  // The streaming stages must beat 120 Hz per core by a wide margin even
  // at this scaled frame size.
  data::BeamProfileConfig beam;
  beam.height = 32;
  beam.width = 32;
  stream::BeamProfileSource source(beam, 200, 120.0, 9);
  const auto events = stream::drain(source, 200);
  std::vector<image::ImageF> images;
  for (const auto& e : events) images.push_back(e.frame);

  stream::PipelineConfig config;
  config.sketch.ell = 16;
  config.num_cores = 1;
  config.pca_components = 8;
  config.umap.n_neighbors = 10;
  config.umap.n_epochs = 80;
  const auto result =
      stream::MonitoringPipeline(config).analyze(images);
  const double streaming_seconds = result.report.seconds("preprocess") +
                                   result.report.seconds("sketch") +
                                   result.report.seconds("project");
  EXPECT_GT(200.0 / streaming_seconds, 120.0);
}

TEST(TwoStageShape, NonlinearStageBeatsPcaOnly) {
  // Four classes overflow what two linear coordinates can separate; the
  // nonlinear stage recovers them (the Section VI "both stages" claim).
  data::DiffractionConfig diff;
  diff.height = 28;
  diff.width = 28;
  diff.num_classes = 4;
  diff.photons_per_frame = 2e4;
  stream::DiffractionSource source(diff, 180, 120.0, 10);
  const auto events = stream::drain(source, 180);
  std::vector<int> truth;
  std::vector<image::ImageF> images;
  for (const auto& e : events) {
    truth.push_back(e.truth_label);
    images.push_back(e.frame);
  }
  image::PreprocessConfig pre;
  pre.center = false;
  const Matrix raw =
      image::images_to_matrix(image::preprocess_batch(images, pre));

  core::AramsConfig sk;
  sk.ell = 16;
  core::Arams sketcher(sk);
  const auto sketch = sketcher.sketch_matrix(raw);

  const embed::PcaProjector pca2(sketch.sketch, 2);
  const embed::PcaProjector pca8(sketch.sketch, 8);
  const Matrix pca_only = pca2.project(raw);
  embed::UmapConfig umap;
  umap.n_neighbors = 12;
  umap.n_epochs = 120;
  const Matrix two_stage = embed::umap_embed(pca8.project(raw), umap);

  cluster::KmeansConfig km;
  km.k = 4;
  km.restarts = 6;
  const double ari_pca = cluster::adjusted_rand_index(
      cluster::kmeans(pca_only, km).labels, truth);
  const double ari_umap = cluster::adjusted_rand_index(
      cluster::kmeans(two_stage, km).labels, truth);
  EXPECT_GE(ari_umap, ari_pca);
  EXPECT_GT(ari_umap, 0.7);
}

}  // namespace
}  // namespace arams
