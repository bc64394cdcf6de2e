// Figure 5 — latent-space embedding of beam-profile data.
//
// The paper shows the 2-D UMAP embedding of LCLS run xppc00121 beam
// profiles organizing by center-of-mass along one axis and circularity/
// lobe-structure along the other, with exotic profiles separating readily.
// The data is private; the synthetic generator exposes exactly those
// ground-truth factors, so this harness *quantifies* the claims in the
// space where each lives:
//
//  * pointing mode (no CoM centering): the raw pointing jitter dominates —
//    report |corr(embedding axis, CoM offset)|.
//  * shape mode (paper preprocessing: threshold + center + normalize):
//    shape factors dominate — elongation at a random angle maps to
//    *distance from the embedding center* along an axis, so report
//    |corr(|axis deviation|, ellipticity)| and |corr(|axis dev|, lobes)|.
//  * exotic (donut) profiles cluster together rather than scattering, so
//    their separation is measured as the mean silhouette of exotic points
//    under the binary exotic/normal partition.

#include <algorithm>
#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "cluster/metrics.hpp"
#include "data/beam_profile.hpp"
#include "embed/metrics.hpp"
#include "stream/pipeline.hpp"
#include "util/stopwatch.hpp"

namespace {

using namespace arams;

/// max over embedding axes of |corr(axis value, factor)|.
double best_axis_corr(const linalg::Matrix& embedding,
                      const std::vector<double>& factor) {
  double best = 0.0;
  for (std::size_t axis = 0; axis < embedding.cols(); ++axis) {
    best = std::max(best, std::abs(embed::axis_factor_correlation(
                              embedding, axis, factor)));
  }
  return best;
}

/// max over axes of |corr(|axis − mean|, factor)| — for factors that map
/// to distance-from-center (elongation at random orientation).
double best_absdev_corr(const linalg::Matrix& embedding,
                        const std::vector<double>& factor) {
  const std::size_t n = embedding.rows();
  double best = 0.0;
  for (std::size_t axis = 0; axis < embedding.cols(); ++axis) {
    double mean = 0.0;
    for (std::size_t i = 0; i < n; ++i) mean += embedding(i, axis);
    mean /= static_cast<double>(n);
    linalg::Matrix dev(n, 1);
    for (std::size_t i = 0; i < n; ++i) {
      dev(i, 0) = std::abs(embedding(i, axis) - mean);
    }
    best = std::max(
        best, std::abs(embed::axis_factor_correlation(dev, 0, factor)));
  }
  return best;
}

/// Mean silhouette of the exotic points under the exotic/normal split.
double exotic_separation(const linalg::Matrix& embedding,
                         const std::vector<data::BeamProfileSample>& samples) {
  std::vector<int> labels(samples.size());
  bool any = false;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    labels[i] = samples[i].truth.exotic ? 1 : 0;
    any |= samples[i].truth.exotic;
  }
  if (!any) return 0.0;
  // silhouette() averages over all points; recompute restricted to the
  // exotic class by zeroing the normal class's contribution: easier to
  // just compute by hand here.
  double total = 0.0;
  std::size_t count = 0;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    if (labels[i] != 1) continue;
    double a = 0.0, b = 0.0;
    std::size_t na = 0, nb = 0;
    for (std::size_t j = 0; j < samples.size(); ++j) {
      if (j == i) continue;
      const double d = std::hypot(embedding(i, 0) - embedding(j, 0),
                                  embedding(i, 1) - embedding(j, 1));
      if (labels[j] == 1) {
        a += d;
        ++na;
      } else {
        b += d;
        ++nb;
      }
    }
    if (na == 0 || nb == 0) continue;
    a /= static_cast<double>(na);
    b /= static_cast<double>(nb);
    total += (b - a) / std::max(a, b);
    ++count;
  }
  return count > 0 ? total / static_cast<double>(count) : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags;
  flags.declare("frames", "500", "beam-profile frames (paper: full run)");
  flags.declare("size", "32", "frame height/width");
  flags.declare("cores", "4", "range-partitioned batch shards");
  flags.declare("full", "false", "larger run (2000 frames, 64x64)");
  flags.declare("help", "false", "print usage");
  flags.parse(argc, argv);
  if (flags.get_bool("help")) {
    std::cout << flags.usage("fig5_beam_embedding");
    return 0;
  }
  const bool full = flags.get_bool("full");
  const std::size_t frames =
      full ? 2000 : static_cast<std::size_t>(flags.get_int("frames"));
  const std::size_t size =
      full ? 64 : static_cast<std::size_t>(flags.get_int("size"));

  bench::banner("Figure 5 (beam-profile latent embedding)", full,
                "unsupervised organization by CoM / shape factors");

  data::BeamProfileConfig beam;
  beam.height = size;
  beam.width = size;
  beam.exotic_prob = 0.02;
  Rng rng(5);
  std::cerr << "[fig5] generating " << frames << " beam profiles...\n";
  const auto samples = data::generate_beam_profiles(beam, frames, rng);
  std::vector<image::ImageF> images;
  images.reserve(frames);
  for (const auto& s : samples) images.push_back(s.frame);

  std::vector<double> com_x(frames), com_y(frames), ellipticity(frames),
      lobes(frames);
  for (std::size_t i = 0; i < frames; ++i) {
    com_x[i] = samples[i].truth.com_x;
    com_y[i] = samples[i].truth.com_y;
    ellipticity[i] = samples[i].truth.ellipticity;
    lobes[i] = samples[i].truth.lobes;
  }

  stream::PipelineConfig config;
  config.sketch.ell = 24;
  config.sketch.epsilon = 0.05;
  config.num_cores = static_cast<std::size_t>(flags.get_int("cores"));
  config.pca_components = 12;
  config.umap.n_neighbors = 15;
  config.umap.n_epochs = 200;

  Table table({"mode", "metric", "value"});
  Stopwatch timer;

  // --- pointing mode: raw frames, CoM dominates ---
  {
    config.preprocess.center = false;
    const stream::MonitoringPipeline pipeline(config);
    const stream::PipelineResult result = pipeline.analyze(images);
    table.add_row({"pointing", "corr(axis, CoM x)",
                   Table::num(best_axis_corr(result.embedding, com_x))});
    table.add_row({"pointing", "corr(axis, CoM y)",
                   Table::num(best_axis_corr(result.embedding, com_y))});
    table.add_row(
        {"pointing", "trustworthiness",
         Table::num(embed::trustworthiness(result.latent, result.embedding,
                                           12))});
  }

  // --- shape mode: paper preprocessing (threshold+center+normalize) ---
  {
    config.preprocess.center = true;
    const stream::MonitoringPipeline pipeline(config);
    const stream::PipelineResult result = pipeline.analyze(images);
    table.add_row(
        {"shape", "corr(|axis dev|, ellipticity)",
         Table::num(best_absdev_corr(result.embedding, ellipticity))});
    table.add_row({"shape", "corr(|axis dev|, lobes)",
                   Table::num(best_absdev_corr(result.embedding, lobes))});
    table.add_row({"shape", "exotic separation (silhouette)",
                   Table::num(exotic_separation(result.embedding, samples))});
    table.add_row(
        {"shape", "trustworthiness",
         Table::num(embed::trustworthiness(result.latent, result.embedding,
                                           12))});
    table.add_row({"shape", "final sketch rank",
                   Table::num(static_cast<long>(result.final_ell))});
  }
  table.add_row({"both", "total seconds", Table::num(timer.seconds())});
  bench::emit("embedding organization vs ground-truth factors", table);

  std::cout << "\nexpected shape: pointing mode puts CoM on the axes "
               "(|corr| > 0.5); shape mode organizes by ellipticity and "
               "lobe count (|corr| > 0.3 each) and exotic profiles "
               "separate (positive silhouette).\n";
  return 0;
}
