// Ablation — OPTICS vs HDBSCAN as the pipeline's clustering stage.
//
// The paper uses OPTICS (its artifact env also ships hdbscan). This
// harness runs the Fig. 6 diffraction workload through both backends and
// reports cluster recovery (ARI, purity, cluster count) and stage runtime
// — plus a variable-density stress case where a single ε-cut struggles.

#include <iostream>

#include "bench_common.hpp"
#include "cluster/hdbscan.hpp"
#include "cluster/metrics.hpp"
#include "cluster/optics.hpp"
#include "rng/rng.hpp"
#include "stream/pipeline.hpp"
#include "stream/source.hpp"
#include "util/stopwatch.hpp"

int main(int argc, char** argv) {
  using namespace arams;

  CliFlags flags;
  flags.declare("frames", "300", "diffraction frames");
  flags.declare("classes", "4", "latent classes");
  flags.declare("help", "false", "print usage");
  flags.parse(argc, argv);
  if (flags.get_bool("help")) {
    std::cout << flags.usage("ablation_clustering");
    return 0;
  }
  const auto frames = static_cast<std::size_t>(flags.get_int("frames"));

  bench::banner("Ablation (OPTICS vs HDBSCAN clustering stage)", false,
                "Fig. 6 workload + a variable-density stress case");

  // --- part 1: the Fig. 6 diffraction workload through both backends ---
  data::DiffractionConfig diff;
  diff.height = 40;
  diff.width = 40;
  diff.num_classes = static_cast<std::size_t>(flags.get_int("classes"));
  diff.photons_per_frame = 5e4;
  stream::DiffractionSource source(diff, frames, 120.0, 9);
  const auto events = stream::drain(source, frames);
  std::vector<int> truth;
  for (const auto& e : events) truth.push_back(e.truth_label);

  Table table({"backend", "clusters", "ari", "purity", "stage_s"});
  for (const auto method :
       {stream::PipelineConfig::ClusterMethod::kOptics,
        stream::PipelineConfig::ClusterMethod::kHdbscan}) {
    stream::PipelineConfig config;
    config.sketch.ell = 24;
    config.num_cores = 4;
    config.pca_components = 10;
    config.umap.n_neighbors = 15;
    config.umap.n_epochs = 200;
    config.preprocess.center = false;
    config.cluster_method = method;
    const stream::MonitoringPipeline pipeline(config);
    const stream::PipelineResult result = pipeline.analyze_events(events);
    table.add_row(
        {method == stream::PipelineConfig::ClusterMethod::kOptics
             ? "optics"
             : "hdbscan",
         Table::num(static_cast<long>(cluster::cluster_count(result.labels))),
         Table::num(cluster::adjusted_rand_index(result.labels, truth)),
         Table::num(cluster::purity(result.labels, truth)),
         Table::num(result.report.seconds("cluster"))});
  }
  bench::emit("Fig. 6 workload, both backends", table);

  // --- part 2: variable-density stress case ---
  Rng rng(10);
  linalg::Matrix pts(160, 2);
  std::vector<int> density_truth(160);
  for (std::size_t i = 0; i < 80; ++i) {  // tight cluster
    pts(i, 0) = 0.3 * rng.normal();
    pts(i, 1) = 0.3 * rng.normal();
    density_truth[i] = 0;
  }
  for (std::size_t i = 80; i < 160; ++i) {  // diffuse cluster
    pts(i, 0) = 40.0 + 4.0 * rng.normal();
    pts(i, 1) = 4.0 * rng.normal();
    density_truth[i] = 1;
  }
  Table stress({"backend", "clusters", "ari"});
  {
    const cluster::OpticsResult o = cluster::optics(pts, {8});
    const auto labels = cluster::extract_auto(o, 0.9);
    stress.add_row(
        {"optics(auto-eps)",
         Table::num(static_cast<long>(cluster::cluster_count(labels))),
         Table::num(cluster::adjusted_rand_index(labels, density_truth))});
  }
  {
    const auto r = cluster::hdbscan(pts, {8, 16});
    stress.add_row(
        {"hdbscan",
         Table::num(static_cast<long>(r.num_clusters)),
         Table::num(cluster::adjusted_rand_index(r.labels, density_truth))});
  }
  bench::emit("variable-density stress case", stress);

  std::cout << "\nexpected shape: comparable recovery on the Fig. 6 "
               "workload; on the variable-density case HDBSCAN keeps both "
               "clusters while a single-cut OPTICS extraction degrades.\n";
  return 0;
}
