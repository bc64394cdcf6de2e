// Beam-profile monitoring (the Fig. 5 scenario): generate synthetic beam
// profiles with known ground-truth factors, run the full pipeline
// (preprocess → ARAMS sketch → PCA → UMAP → OPTICS/ABOD), and report how
// the unsupervised embedding organizes the data.
//
//   ./beam_monitor [--frames=600] [--size=48] [--cores=4] [--out=embedding.csv]

#include <algorithm>
#include <cmath>
#include <iostream>
#include <sstream>

#include "arams.hpp"

int main(int argc, char** argv) {
  using namespace arams;

  CliFlags flags;
  flags.declare("frames", "600", "number of beam-profile frames");
  flags.declare("size", "48", "frame height/width in pixels");
  flags.declare("cores", "4", "range-partitioned batch shards");
  flags.declare("out", "", "optional CSV path for the embedding");
  flags.declare("html", "", "optional interactive HTML scatter path");
  flags.declare("pointing", "false",
                "skip CoM centering so pointing jitter dominates");
  flags.declare("help", "false", "print usage");
  flags.parse(argc, argv);
  if (flags.get_bool("help")) {
    std::cout << flags.usage("beam_monitor");
    return 0;
  }
  const auto frames = static_cast<std::size_t>(flags.get_int("frames"));
  const auto size = static_cast<std::size_t>(flags.get_int("size"));

  // 1. Synthetic detector: Gaussian-mode profiles with CoM jitter,
  //    ellipticity, occasional multi-lobe and exotic donut shapes.
  data::BeamProfileConfig beam;
  beam.height = size;
  beam.width = size;
  beam.exotic_prob = 0.02;
  Rng rng(7);
  std::cout << "generating " << frames << " beam profiles (" << size << "x"
            << size << ")...\n";
  const auto samples = data::generate_beam_profiles(beam, frames, rng);
  std::vector<image::ImageF> images;
  images.reserve(frames);
  for (const auto& s : samples) images.push_back(s.frame);

  // 2. Full monitoring pipeline with the paper's preprocessing
  //    (threshold + CoM centering + normalization): the embedding then
  //    organizes by beam *shape*. Pass --pointing to skip centering and
  //    let the raw pointing (CoM) signal dominate instead.
  stream::PipelineConfig config;
  config.sketch.ell = 24;
  config.sketch.epsilon = 0.05;
  config.num_cores = static_cast<std::size_t>(flags.get_int("cores"));
  config.pca_components = 12;
  config.umap.n_neighbors = 15;
  config.umap.n_epochs = 200;
  config.preprocess.center = !flags.get_bool("pointing");
  const stream::MonitoringPipeline pipeline(config);
  const stream::PipelineResult result = pipeline.analyze(images);

  // 3. Interpret the embedding against the generator's ground truth.
  //    CoM is a signed factor (correlates with a signed axis); elongation
  //    happens at a random orientation, so it maps to *distance from the
  //    embedding center* along an axis.
  std::vector<double> com_x(frames), ellipticity(frames);
  for (std::size_t i = 0; i < frames; ++i) {
    com_x[i] = samples[i].truth.com_x;
    ellipticity[i] = samples[i].truth.ellipticity;
  }
  double best_com = 0.0, best_ell = 0.0;
  for (std::size_t axis = 0; axis < 2; ++axis) {
    best_com = std::max(best_com, std::abs(embed::axis_factor_correlation(
                                      result.embedding, axis, com_x)));
    double mean = 0.0;
    for (std::size_t i = 0; i < frames; ++i) {
      mean += result.embedding(i, axis);
    }
    mean /= static_cast<double>(frames);
    linalg::Matrix dev(frames, 1);
    for (std::size_t i = 0; i < frames; ++i) {
      dev(i, 0) = std::abs(result.embedding(i, axis) - mean);
    }
    best_ell = std::max(best_ell,
                        std::abs(embed::axis_factor_correlation(
                            dev, 0, ellipticity)));
  }
  const double trust =
      embed::trustworthiness(result.latent, result.embedding, 12);

  // Exotic (donut) profiles form their own tight region of the embedding;
  // report how far they sit from the nearest normal profile on average.
  std::size_t exotic_total = 0;
  double exotic_gap = 0.0;
  for (std::size_t i = 0; i < frames; ++i) {
    if (!samples[i].truth.exotic) continue;
    ++exotic_total;
    double nearest_normal = 1e300;
    for (std::size_t j = 0; j < frames; ++j) {
      if (samples[j].truth.exotic) continue;
      const double d = std::hypot(result.embedding(i, 0) -
                                      result.embedding(j, 0),
                                  result.embedding(i, 1) -
                                      result.embedding(j, 1));
      nearest_normal = std::min(nearest_normal, d);
    }
    exotic_gap += nearest_normal;
  }
  if (exotic_total > 0) exotic_gap /= static_cast<double>(exotic_total);

  const obs::StageReport& timings = result.report;
  std::cout << "\npipeline timings: sketch " << timings.seconds("sketch")
            << " s, project " << timings.seconds("project") << " s, UMAP "
            << timings.seconds("embed") << " s, cluster "
            << timings.seconds("cluster") << " s\n"
            << "final sketch rank: " << result.final_ell << "\n"
            << "|corr(embedding axis, CoM offset)|      = " << best_com
            << "\n"
            << "|corr(|axis deviation|, ellipticity)|   = " << best_ell
            << "\n"
            << "trustworthiness(latent -> 2-D)          = " << trust << "\n"
            << "exotic profiles: " << exotic_total
            << ", mean gap to nearest normal profile: " << exotic_gap
            << "\n";

  if (const std::string& out = flags.get("out"); !out.empty()) {
    Table table({"x", "y", "label", "com_x", "ellipticity", "exotic"});
    for (std::size_t i = 0; i < frames; ++i) {
      table.add_row({Table::num(result.embedding(i, 0)),
                     Table::num(result.embedding(i, 1)),
                     Table::num(static_cast<long>(result.labels[i])),
                     Table::num(com_x[i]), Table::num(ellipticity[i]),
                     samples[i].truth.exotic ? "1" : "0"});
    }
    table.save_csv(out);
    std::cout << "embedding written to " << out << "\n";
  }
  if (const std::string& html = flags.get("html"); !html.empty()) {
    std::vector<std::string> tooltips(frames);
    for (std::size_t i = 0; i < frames; ++i) {
      std::ostringstream tip;
      tip << "shot " << i << " | ellipticity "
          << samples[i].truth.ellipticity << " | lobes "
          << samples[i].truth.lobes
          << (samples[i].truth.exotic ? " | EXOTIC" : "");
      tooltips[i] = tip.str();
    }
    embed::ScatterConfig scatter;
    scatter.title = "Beam-profile embedding (synthetic LCLS run)";
    embed::write_scatter_html(html, result.embedding, result.labels,
                              tooltips, scatter);
    std::cout << "interactive scatter written to " << html << "\n";
  }
  return 0;
}
