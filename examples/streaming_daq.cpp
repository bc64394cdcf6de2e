// Streaming DAQ demo (Section VI-B operational mode): frames arrive from a
// rate-controlled source; the StreamingMonitor keeps a persistent
// rank-adaptive sketch and produces operator snapshots on demand, while the
// throughput meter reports how far above the detector rate the pipeline
// runs.
//
//   ./streaming_daq [--frames=1500] [--batch=128] [--rate=120] [--size=32]

#include <iostream>

#include "arams.hpp"

int main(int argc, char** argv) {
  using namespace arams;

  CliFlags flags;
  flags.declare("frames", "1500", "frames to stream");
  flags.declare("batch", "128", "frames per sketch update");
  flags.declare("rate", "120", "detector rate in Hz (timestamps only)");
  flags.declare("size", "32", "frame height/width");
  flags.declare("snapshots", "3", "operator snapshots across the run");
  flags.declare("help", "false", "print usage");
  flags.parse(argc, argv);
  if (flags.get_bool("help")) {
    std::cout << flags.usage("streaming_daq");
    return 0;
  }
  const auto frames = static_cast<std::size_t>(flags.get_int("frames"));
  const auto snapshots =
      std::max<long>(1, flags.get_int("snapshots"));

  data::BeamProfileConfig beam;
  beam.height = static_cast<std::size_t>(flags.get_int("size"));
  beam.width = beam.height;
  stream::BeamProfileSource source(beam, frames,
                                   flags.get_double("rate"), 17);

  stream::MonitorConfig config;
  config.batch_size = static_cast<std::size_t>(flags.get_int("batch"));
  config.reservoir_size = 1024;
  config.pipeline.sketch.ell = 16;
  config.pipeline.sketch.rank_adaptive = true;
  config.pipeline.sketch.epsilon = 0.08;
  config.pipeline.pca_components = 10;
  config.pipeline.umap.n_neighbors = 12;
  config.pipeline.umap.n_epochs = 120;
  stream::StreamingMonitor monitor(config);

  // Shot-to-shot instrument diagnostics run alongside the science pipeline
  // (the paper's "instrument diagnostic" use of the same stream).
  stream::BeamDiagnostics diagnostics(/*warmup=*/120);

  const std::size_t snap_every = frames / static_cast<std::size_t>(snapshots);
  std::size_t seen = 0;
  while (auto event = source.next()) {
    monitor.ingest(*event);
    for (const auto& alarm : diagnostics.update(*event)) {
      std::cout << "[shot " << seen << "] ALARM: " << alarm << "\n";
    }
    ++seen;
    if (seen % snap_every == 0) {
      monitor.flush();
      const stream::SnapshotResult snap = monitor.snapshot();
      std::cout << "[shot " << seen << "] snapshot of "
                << snap.embedding.rows() << " frames in "
                << snap.report.seconds("snapshot") << " s; sketch rank "
                << monitor.current_ell() << "; sketch error gauge "
                << monitor.sketch_error_estimate()
                << "; throughput so far "
                << monitor.throughput().frames_per_second() << " frames/s\n";
    }
  }
  monitor.flush();

  const auto& meter = monitor.throughput();
  const double detector_rate = flags.get_double("rate");
  std::cout << "\nstreamed " << meter.total_frames() << " frames in "
            << meter.total_seconds() << " s of pipeline time → "
            << meter.frames_per_second() << " frames/s ("
            << meter.frames_per_second() / detector_rate
            << "x the detector rate)\n"
            << "sketch rotations: " << monitor.sketch_stats().svd_count
            << ", rank increases: "
            << monitor.sketch_stats().rank_increases << "\n"
            << "diagnostics: " << diagnostics.shots_seen()
            << " shots monitored, " << diagnostics.total_alarms()
            << " drift alarms\n";
  return 0;
}
