// Figure 4 — the full data-processing pipeline, reproduced as a
// stage-by-stage latency/throughput account.
//
// Fig. 4 is a schematic (batches → per-core sketches → merge → PCA → UMAP
// → clustering/anomaly detection); the checkable content is that every
// stage exists and that stage latencies stay compatible with online
// operation. This harness runs the beam-profile workload through the
// facade at several batch sizes and reports per-stage wall time and the
// per-frame cost of the streaming stages.

#include <iostream>

#include "bench_common.hpp"
#include "stream/pipeline.hpp"
#include "stream/source.hpp"
#include "util/stopwatch.hpp"

int main(int argc, char** argv) {
  using namespace arams;

  CliFlags flags;
  flags.declare("size", "32", "frame height/width");
  flags.declare("cores", "4", "range-partitioned batch shards");
  flags.declare("full", "false", "larger frame counts");
  flags.declare("help", "false", "print usage");
  flags.parse(argc, argv);
  if (flags.get_bool("help")) {
    std::cout << flags.usage("fig4_pipeline_stages");
    return 0;
  }
  const bool full = flags.get_bool("full");
  const auto size = static_cast<std::size_t>(flags.get_int("size"));

  bench::banner("Figure 4 (pipeline stage accounting)", full,
                "per-stage wall time across workload sizes");

  Table table({"frames", "preprocess_s", "sketch_s", "merge_ops",
               "project_s", "umap_s", "cluster_s", "total_s",
               "stream_stage_us_per_frame"});
  const std::size_t counts_small[] = {128, 256, 512, 1024};
  const std::size_t counts_full[] = {512, 1024, 2048, 4096};
  for (const std::size_t frames : (full ? counts_full : counts_small)) {
    data::BeamProfileConfig beam;
    beam.height = size;
    beam.width = size;
    stream::BeamProfileSource source(beam, frames, 120.0, 13);
    const auto events = stream::drain(source, frames);

    stream::PipelineConfig config;
    config.sketch.ell = 24;
    config.num_cores = static_cast<std::size_t>(flags.get_int("cores"));
    config.pca_components = 12;
    config.umap.n_neighbors = 15;
    config.umap.n_epochs = 200;
    const stream::MonitoringPipeline pipeline(config);

    Stopwatch timer;
    const stream::PipelineResult r = pipeline.analyze_events(events);
    const double total = timer.seconds();
    // The streaming stages are preprocess + sketch + project; UMAP and
    // clustering run on operator demand over the reservoir.
    const obs::StageReport& rep = r.report;
    const double streaming = rep.seconds("preprocess") +
                             rep.seconds("sketch") + rep.seconds("project");
    table.add_row({Table::num(static_cast<long>(frames)),
                   Table::num(rep.seconds("preprocess")),
                   Table::num(rep.seconds("sketch")),
                   Table::num(rep.counter("merge_ops")),
                   Table::num(rep.seconds("project")),
                   Table::num(rep.seconds("embed")),
                   Table::num(rep.seconds("cluster")), Table::num(total),
                   Table::num(1e6 * streaming /
                              static_cast<double>(frames))});
  }
  bench::emit("stage latencies vs workload size", table);

  std::cout << "\nexpected shape: the streaming stages cost a roughly "
               "constant handful of microseconds per frame (they scale "
               "linearly); UMAP+clustering grow superlinearly but run on "
               "snapshot demand, not per shot.\n";
  return 0;
}
