// Diffraction-data exploration (the Fig. 6 scenario): frames from K latent
// quadrant-weight classes go through the pipeline unsupervised; we report
// how well OPTICS clusters recover the latent classes (ARI / purity).
//
//   ./diffraction_explorer [--frames=400] [--classes=4] [--size=48]

#include <iostream>
#include <sstream>

#include "arams.hpp"

int main(int argc, char** argv) {
  using namespace arams;

  CliFlags flags;
  flags.declare("frames", "400", "number of diffraction frames");
  flags.declare("classes", "4", "number of latent quadrant-weight classes");
  flags.declare("size", "48", "frame height/width in pixels");
  flags.declare("out", "", "optional CSV path for the embedding");
  flags.declare("html", "", "optional interactive HTML scatter path");
  flags.declare("help", "false", "print usage");
  flags.parse(argc, argv);
  if (flags.get_bool("help")) {
    std::cout << flags.usage("diffraction_explorer");
    return 0;
  }
  const auto frames = static_cast<std::size_t>(flags.get_int("frames"));

  data::DiffractionConfig diff;
  diff.height = static_cast<std::size_t>(flags.get_int("size"));
  diff.width = diff.height;
  diff.num_classes = static_cast<std::size_t>(flags.get_int("classes"));
  diff.photons_per_frame = 5e4;

  std::cout << "generating " << frames << " diffraction frames from "
            << diff.num_classes << " latent classes...\n";
  stream::DiffractionSource source(diff, frames, 120.0, 11);
  const auto events = stream::drain(source, frames);
  std::vector<int> truth;
  truth.reserve(frames);
  for (const auto& e : events) truth.push_back(e.truth_label);

  stream::PipelineConfig config;
  config.sketch.ell = 24;
  config.num_cores = 4;
  config.pca_components = 10;
  config.umap.n_neighbors = 15;
  config.umap.n_epochs = 200;
  config.preprocess.center = false;  // rings are already centered
  const stream::MonitoringPipeline pipeline(config);
  const stream::PipelineResult result = pipeline.analyze_events(events);

  const double ari = cluster::adjusted_rand_index(result.labels, truth);
  const double pur = cluster::purity(result.labels, truth);
  const double sil =
      cluster::silhouette(result.embedding, result.labels);

  std::cout << "\nOPTICS found " << cluster::cluster_count(result.labels)
            << " clusters (truth: " << diff.num_classes << ")\n"
            << "adjusted Rand index vs latent classes = " << ari << "\n"
            << "purity                                = " << pur << "\n"
            << "embedding silhouette                  = " << sil << "\n"
            << "timings: sketch " << result.report.seconds("sketch")
            << " s, UMAP " << result.report.seconds("embed") << " s, cluster "
            << result.report.seconds("cluster") << " s\n";

  if (const std::string& out = flags.get("out"); !out.empty()) {
    Table table({"x", "y", "cluster", "truth"});
    for (std::size_t i = 0; i < frames; ++i) {
      table.add_row({Table::num(result.embedding(i, 0)),
                     Table::num(result.embedding(i, 1)),
                     Table::num(static_cast<long>(result.labels[i])),
                     Table::num(static_cast<long>(truth[i]))});
    }
    table.save_csv(out);
    std::cout << "embedding written to " << out << "\n";
  }
  if (const std::string& html = flags.get("html"); !html.empty()) {
    std::vector<std::string> tooltips(frames);
    for (std::size_t i = 0; i < frames; ++i) {
      std::ostringstream tip;
      tip << "shot " << events[i].shot_id << " | latent class "
          << truth[i] << " | cluster " << result.labels[i];
      tooltips[i] = tip.str();
    }
    embed::ScatterConfig scatter;
    scatter.title = "Diffraction embedding (synthetic LCLS run)";
    embed::write_scatter_html(html, result.embedding, result.labels,
                              tooltips, scatter);
    std::cout << "interactive scatter written to " << html << "\n";
  }
  return 0;
}
