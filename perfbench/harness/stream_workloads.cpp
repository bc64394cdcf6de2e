// stream-ingest and stream-snapshot: a StreamingMonitor fed by one
// closed-loop producer that replays a frame pool generated from the seed.
//
// One *episode* is a fresh monitor that ingests the whole pool and produces
// its pictures; every episode of a run sees identical inputs, so every
// episode must produce identical pictures (checked). The untraced run times
// the facade calls only. The traced run first repeats the untraced episodes
// (registry deltas, untraced facade wall), then runs episodes with spans on
// and, after every facade call, replays the same work through the public
// layer functions (StreamReplay) to split the facade's time into layers.

#include <cmath>
#include <deque>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <string>

#include "cluster/optics.hpp"
#include "core/error_tracker.hpp"
#include "core/sketcher.hpp"
#include "data/beam_profile.hpp"
#include "data/speckle.hpp"
#include "embed/ann/searcher.hpp"
#include "embed/pca.hpp"
#include "embed/umap.hpp"
#include "image/preprocess.hpp"
#include "linalg/blas.hpp"
#include "linalg/workspace.hpp"
#include "obs/health.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "stream/monitor.hpp"
#include "stream/source.hpp"
#include "util/stopwatch.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using arams::Stopwatch;
using arams::linalg::Matrix;
using arams::stream::MonitorConfig;
using arams::stream::PipelineConfig;
using arams::stream::ShotEvent;
using arams::stream::SnapshotResult;
using arams::stream::StreamingMonitor;

/// Batches stream-ingest holds back from its timed pass: each is ingested
/// after the final snapshot and followed by one incremental refresh.
constexpr std::size_t kRefreshBatches = 4;

struct StreamSpec {
  MonitorConfig config;
  /// 0: no picture until the pool is ingested, then one full snapshot and,
  /// after each of kRefreshBatches more batches, one incremental refresh
  /// (stream-ingest).
  /// F > 0: once the reservoir is full, a full snapshot every F batches and
  /// an incremental refresh after every other batch (stream-snapshot).
  std::size_t full_every;
  /// Times the timed pass walks the pool. stream-ingest walks it twice so
  /// most updates run at the grown rank, and the seed-dependent timing of
  /// rank growth moves the medians less. Shot ids repeat across passes but
  /// never meet in the reservoir, which is smaller than the pool.
  std::size_t passes = 1;
  /// Percentile of the update samples reported as update_tail_ms: the
  /// highest that leaves at least ten samples beyond it in the fewest
  /// episodes a run holds (stream-ingest: 28 updates an episode, 4-6
  /// episodes in an untraced run).
  double tail_percentile = 90.0;
  std::function<std::vector<ShotEvent>(std::uint64_t)> generate;
};

StreamSpec stream_ingest_spec() {
  StreamSpec spec;
  MonitorConfig& c = spec.config;
  c.batch_size = 256;
  c.reservoir_size = 512;
  c.pipeline.sketch.ell = 24;
  c.pipeline.sketch.rank_adaptive = true;
  c.pipeline.sketch.epsilon = 0.08;
  c.pipeline.ingest_precision = PipelineConfig::IngestPrecision::kF32;
  c.pipeline.shards = 4;
  spec.full_every = 0;
  spec.passes = 2;
  spec.generate = [](std::uint64_t seed) {
    constexpr std::size_t kPool = 4096;
    arams::data::SpeckleConfig speckle;
    speckle.height = 64;
    speckle.width = 64;
    // Partially coherent beam. At the generator's fully coherent default
    // (contrast 1.0) ε = 0.08 is out of reach: ℓ stops at 54 over four
    // shards while the tracked error sits at 0.41 and the watchdog goes
    // CRITICAL, so every run would fail. At 0.7, ℓ still grows (24 → 54).
    speckle.contrast = 0.7;
    arams::stream::SpeckleSource source(speckle, kPool, 120.0, seed);
    return arams::stream::drain(source, kPool);
  };
  return spec;
}

StreamSpec stream_snapshot_spec() {
  StreamSpec spec;
  MonitorConfig& c = spec.config;
  c.batch_size = 128;
  // Above AnnConfig::exact_threshold (4096): the auto searcher takes
  // rpforest for the snapshot kNN graph and the warm index. Kept close to
  // the threshold so a run holds enough pictures for a steady median.
  c.reservoir_size = 4608;
  c.pipeline.sketch.ell = 24;
  c.pipeline.sketch.rank_adaptive = false;
  spec.full_every = 3;
  // 42 updates an episode, 2 episodes in an untraced run.
  spec.tail_percentile = 80.0;
  spec.generate = [](std::uint64_t seed) {
    // Fill the reservoir, then six more batches: refresh, refresh, full,
    // refresh, refresh, full.
    constexpr std::size_t kPool = 4608 + 6 * 128;
    arams::data::BeamProfileConfig beam;
    beam.height = 32;
    beam.width = 32;
    arams::stream::BeamProfileSource source(beam, kPool, 120.0, seed);
    return arams::stream::drain(source, kPool);
  };
  return spec;
}

/// ‖BBᵀ − I‖_F — the monitor's basis-orthogonality health check.
double orthogonality_residual(const Matrix& basis) {
  const Matrix gram = arams::linalg::gram_rows(basis);
  double sq = 0.0;
  for (std::size_t i = 0; i < gram.rows(); ++i) {
    for (std::size_t j = 0; j < gram.cols(); ++j) {
      const double g = gram(i, j) - (i == j ? 1.0 : 0.0);
      sq += g * g;
    }
  }
  return std::sqrt(sq);
}

/// The same work as StreamingMonitor, done through the public layer
/// functions on the same inputs and configs: preprocess, sketcher
/// push_batch and the per-batch health numerics on ingest; sketch → PCA →
/// UMAP (or transform + insert against the warm index) → OPTICS on
/// pictures. Each layer runs under a "bench.layer.<name>" span. Outputs
/// must match the monitor's bit for bit, or the layer times describe a
/// different program.
class StreamReplay {
 public:
  explicit StreamReplay(const MonitorConfig& config)
      : config_(config),
        sketcher_(arams::core::make_sketcher(config.pipeline.sketcher_config())),
        tracker_(arams::core::ErrorTrackerConfig{}) {}

  /// Returns true when the frame completed a batch (a sketch update).
  bool ingest(const ShotEvent& event) {
    std::vector<double> row;
    const bool f32 = config_.pipeline.ingest_precision ==
                     PipelineConfig::IngestPrecision::kF32;
    {
      const arams::obs::ScopedSpan span("bench.layer.image.preprocess");
      if (f32) {
        const arams::image::ImageF32 processed = arams::image::preprocess(
            arams::image::narrow(event.frame), config_.pipeline.preprocess);
        std::vector<float> row32(processed.pixel_count());
        processed.to_row(std::span<float>(row32));
        row.assign(row32.begin(), row32.end());
        pending_f32_.push_back(std::move(row32));
      } else {
        const arams::image::ImageF processed =
            arams::image::preprocess(event.frame, config_.pipeline.preprocess);
        row.resize(processed.pixel_count());
        processed.to_row(std::span<double>(row));
      }
    }
    ++counts.frames;
    dim_ = row.size();
    tracker_.observe(row);
    reservoir_.emplace_back(event.shot_id, std::move(row));
    if (reservoir_.size() > config_.reservoir_size) reservoir_.pop_front();
    if (!f32) pending_.push_back(reservoir_.back().second);
    if (std::max(pending_.size(), pending_f32_.size()) >= config_.batch_size) {
      update();
      return true;
    }
    return false;
  }

  void flush() {
    if (!pending_.empty() || !pending_f32_.empty()) update();
  }

  SnapshotResult full() {
    SnapshotResult out;
    const Matrix rows = reservoir_rows(out);
    const Matrix latent = project(rows);
    arams::embed::UmapConfig umap = config_.pipeline.umap;
    umap.n_neighbors = std::min(umap.n_neighbors, latent.rows() - 1);
    {
      const arams::obs::ScopedSpan span("bench.layer.embed.umap");
      const RegistrySnapshot before = RegistrySnapshot::take();
      out.embedding = arams::embed::umap_embed(latent, umap, ws_);
      const RegistrySnapshot d = RegistrySnapshot::take().minus(before);
      counts.knn_seconds += d.hist_sum("embed.ann_build_seconds") +
                     d.hist_sum("embed.ann_query_seconds");
    }
    ++counts.umaps;
    out.latent = latent;
    cluster(out);
    {
      const arams::obs::ScopedSpan span("bench.layer.embed.index_build");
      reference_latent_ = out.latent;
      reference_embedding_ = out.embedding;
      reference_shots_ = out.shot_ids;
      if (!index_) {
        index_ = arams::embed::make_searcher(
            arams::embed::umap_knn_config(config_.pipeline.umap));
      }
      index_->build(reference_latent_, ws_);
    }
    return out;
  }

  SnapshotResult refresh() {
    if (reference_embedding_.empty()) return full();
    SnapshotResult out;
    const Matrix rows = reservoir_rows(out);
    out.latent = project(rows);
    std::map<std::uint64_t, std::size_t> known;
    for (std::size_t i = 0; i < reference_shots_.size(); ++i) {
      known[reference_shots_[i]] = i;
    }
    std::vector<std::size_t> fresh_rows;
    out.embedding = Matrix(out.latent.rows(), reference_embedding_.cols());
    for (std::size_t i = 0; i < out.shot_ids.size(); ++i) {
      const auto it = known.find(out.shot_ids[i]);
      if (it != known.end()) {
        out.embedding.set_row(i, reference_embedding_.row(it->second));
      } else {
        fresh_rows.push_back(i);
      }
    }
    if (!fresh_rows.empty()) {
      Matrix fresh(fresh_rows.size(), out.latent.cols());
      for (std::size_t i = 0; i < fresh_rows.size(); ++i) {
        fresh.set_row(i, out.latent.row(fresh_rows[i]));
      }
      arams::embed::UmapConfig umap = config_.pipeline.umap;
      umap.n_neighbors = std::min(umap.n_neighbors, index_->size() - 1);
      Matrix placed;
      {
        const arams::obs::ScopedSpan span("bench.layer.embed.transform");
        placed = arams::embed::umap_transform(*index_, reference_embedding_,
                                              fresh, umap, ws_);
      }
      {
        const arams::obs::ScopedSpan span("bench.layer.embed.insert");
        index_->insert(fresh, ws_);
      }
      ++counts.refreshes;
      for (std::size_t i = 0; i < fresh_rows.size(); ++i) {
        out.embedding.set_row(fresh_rows[i], placed.row(i));
      }
      const std::size_t old = reference_embedding_.rows();
      reference_latent_.reshape(old + fresh.rows(), reference_latent_.cols());
      reference_embedding_.reshape(old + fresh.rows(),
                                   reference_embedding_.cols());
      for (std::size_t i = 0; i < fresh_rows.size(); ++i) {
        reference_latent_.set_row(old + i, fresh.row(i));
        reference_embedding_.set_row(old + i, placed.row(i));
        reference_shots_.push_back(out.shot_ids[fresh_rows[i]]);
      }
    }
    cluster(out);
    return out;
  }

  /// Operation counts behind the span totals (for per-op means), plus the
  /// kNN share of umap_embed read from the registry.
  struct Counts {
    long frames = 0;
    long batches = 0;
    long health_checks = 0;
    long sketches = 0;
    long projections = 0;
    long umaps = 0;
    long refreshes = 0;
    long clusterings = 0;
    double knn_seconds = 0.0;

    Counts& operator+=(const Counts& o) {
      frames += o.frames;
      batches += o.batches;
      health_checks += o.health_checks;
      sketches += o.sketches;
      projections += o.projections;
      umaps += o.umaps;
      refreshes += o.refreshes;
      clusterings += o.clusterings;
      knn_seconds += o.knn_seconds;
      return *this;
    }
  };
  Counts counts;

 private:
  void update() {
    {
      const arams::obs::ScopedSpan span("bench.layer.core.push_batch");
      if (!pending_f32_.empty()) {
        arams::linalg::MatrixF batch(pending_f32_.size(), dim_);
        for (std::size_t i = 0; i < pending_f32_.size(); ++i) {
          batch.set_row(i, pending_f32_[i]);
        }
        pending_f32_.clear();
        sketcher_->push_batch(arams::linalg::MatrixViewF(batch));
      } else {
        Matrix batch(pending_.size(), dim_);
        for (std::size_t i = 0; i < pending_.size(); ++i) {
          batch.set_row(i, pending_[i]);
        }
        pending_.clear();
        sketcher_->push_batch(batch);
      }
    }
    ++counts.batches;
    // The monitor's watchdog runs these numerics after every batch
    // (health_check_every = 1); basis() may compress the sketch, so the
    // replay must make the same calls to keep the same sketch state.
    const arams::obs::ScopedSpan span("bench.layer.stream.health");
    if (tracker_.reservoir_count() > 0 && sketcher_->dim() > 0) {
      const Matrix basis = sketcher_->basis(sketcher_->current_ell());
      if (!basis.empty()) {
        health_sink_ += tracker_.relative_error(basis);
        health_sink_ += orthogonality_residual(basis);
      }
      ++counts.health_checks;
    }
  }

  Matrix reservoir_rows(SnapshotResult& out) const {
    Matrix rows(reservoir_.size(), dim_);
    std::size_t r = 0;
    for (const auto& [shot, row] : reservoir_) {
      rows.set_row(r++, row);
      out.shot_ids.push_back(shot);
    }
    return rows;
  }

  Matrix project(const Matrix& rows) {
    Matrix sketch;
    {
      const arams::obs::ScopedSpan span("bench.layer.core.sketch");
      sketch = sketcher_->sketch();
    }
    ++counts.sketches;
    const arams::obs::ScopedSpan span("bench.layer.embed.project");
    const arams::embed::PcaProjector pca(sketch,
                                         config_.pipeline.pca_components, ws_);
    ++counts.projections;
    return pca.project(rows);
  }

  void cluster(SnapshotResult& out) {
    const arams::obs::ScopedSpan span("bench.layer.cluster.optics");
    arams::cluster::OpticsConfig optics = config_.pipeline.optics;
    if (config_.pipeline.scale_min_pts) {
      optics.min_pts = std::max<std::size_t>(
          optics.min_pts, std::min<std::size_t>(out.embedding.rows() / 10, 30));
    }
    optics.min_pts = std::min<std::size_t>(optics.min_pts, out.embedding.rows());
    const arams::cluster::OpticsResult result =
        arams::cluster::optics(out.embedding, optics, ws_);
    out.labels =
        arams::cluster::extract_auto(result, config_.pipeline.cluster_quantile);
    ++counts.clusterings;
  }

  MonitorConfig config_;
  std::unique_ptr<arams::core::Sketcher> sketcher_;
  arams::core::SketchErrorTracker tracker_;
  std::vector<std::vector<double>> pending_;
  std::vector<std::vector<float>> pending_f32_;
  std::deque<std::pair<std::uint64_t, std::vector<double>>> reservoir_;
  std::size_t dim_ = 0;
  arams::linalg::Workspace ws_;
  Matrix reference_latent_;
  Matrix reference_embedding_;
  std::vector<std::uint64_t> reference_shots_;
  std::unique_ptr<arams::embed::NeighborSearcher> index_;
  double health_sink_ = 0.0;  ///< keeps the health numerics observable
};

/// What one episode measured.
struct Episode {
  std::size_t frames_timed = 0;
  double ingest_seconds = 0.0;  ///< ingest() + flush() walls, timed pass
  std::vector<double> update_ms;  ///< ingest()/flush() calls that updated
  std::vector<double> ingest_us;  ///< ingest() calls that did not
  std::vector<double> snapshot_s;
  std::vector<double> refresh_s;
  double pipeline_s = 0.0;  ///< first frame in → last labels out
  double facade_s = 0.0;    ///< sum of every facade call's wall
  double sketch_rel_error = 0.0;
  std::vector<int> last_labels;
  SnapshotResult last_full;
  arams::core::SketchStats stats;
  std::size_t final_ell = 0;
  long frames_accepted = 0;
  std::string health;  ///< watchdog state and reason at episode end
};

bool same_picture(const SnapshotResult& a, const SnapshotResult& b) {
  return a.labels == b.labels && a.shot_ids == b.shot_ids &&
         bitwise_equal(a.latent, b.latent) &&
         bitwise_equal(a.embedding, b.embedding);
}

void check_picture(const SnapshotResult& pic, const char* what,
                   RunResult& result) {
  result.check(all_finite(pic.embedding) && all_finite(pic.latent) &&
                   pic.labels.size() == pic.embedding.rows() &&
                   pic.shot_ids.size() == pic.embedding.rows(),
               std::string(what) + ": non-finite embedding or label count "
                                   "differs from row count");
}

/// Runs one episode. With `replay` non-null every facade call runs under a
/// "bench.facade.<call>" span and is followed by the same work through the
/// layer functions, whose outputs are checked against the facade's.
Episode run_episode(const StreamSpec& spec, const std::vector<ShotEvent>& pool,
                    arams::obs::HealthState max_health, StreamReplay* replay,
                    RunResult& result) {
  const bool traced = replay != nullptr;
  Episode ep;
  StreamingMonitor monitor(spec.config);
  const std::size_t batch = spec.config.batch_size;
  // stream-ingest holds back the pool's last batches for the refreshes after
  // the final snapshot; stream-snapshot ingests everything in the timed pass.
  const std::size_t timed_end =
      spec.full_every == 0 ? pool.size() - kRefreshBatches * batch
                           : pool.size();
  std::size_t batches_since_full = 0;
  bool have_full = false;
  const double t0 = now_seconds();
  double labels_out = t0;

  const auto picture = [&](bool full) {
    Stopwatch timer;
    SnapshotResult pic;
    {
      const BenchSpan span(traced, full ? "bench.facade.snapshot"
                                        : "bench.facade.refresh");
      pic = full ? monitor.snapshot() : monitor.snapshot_incremental();
    }
    const double s = timer.seconds();
    labels_out = now_seconds();
    ep.facade_s += s;
    ++result.attempted;
    (full ? ep.snapshot_s : ep.refresh_s).push_back(s);
    check_picture(pic, full ? "snapshot" : "refresh", result);
    if (replay != nullptr) {
      const SnapshotResult again = full ? replay->full() : replay->refresh();
      result.check(same_picture(pic, again),
                   std::string("replay of ") + (full ? "snapshot" : "refresh") +
                       " differs from the facade output");
    }
    ep.last_labels = pic.labels;
    if (full) ep.last_full = std::move(pic);
  };

  const auto ingest = [&](const ShotEvent& event, bool timed) {
    Stopwatch timer;
    bool updated = false;
    {
      const BenchSpan span(traced, "bench.facade.ingest");
      updated = monitor.ingest(event);
    }
    const double s = timer.seconds();
    ep.facade_s += s;
    ++ep.frames_accepted;
    ++result.attempted;
    if (timed) {
      ep.ingest_seconds += s;
      ++ep.frames_timed;
      if (updated) {
        ep.update_ms.push_back(s * 1e3);
      } else {
        ep.ingest_us.push_back(s * 1e6);
      }
    }
    if (replay != nullptr && replay->ingest(event) != updated) {
      result.check(false, "replay batching differs from the monitor's");
    }
    return updated;
  };

  const auto flush = [&] {
    Stopwatch timer;
    {
      const BenchSpan span(traced, "bench.facade.flush");
      monitor.flush();
    }
    const double s = timer.seconds();
    ep.facade_s += s;
    ++result.attempted;
    ep.ingest_seconds += s;
    if (replay != nullptr) replay->flush();
  };

  std::size_t ingested = 0;
  for (std::size_t pass = 0; pass < spec.passes; ++pass) {
    const std::size_t end = pass + 1 == spec.passes ? timed_end : pool.size();
    for (std::size_t i = 0; i < end; ++i) {
      const bool updated = ingest(pool[i], true);
      ++ingested;
      if (!updated || spec.full_every == 0 ||
          ingested < spec.config.reservoir_size) {
        continue;
      }
      const bool full = !have_full || ++batches_since_full == spec.full_every;
      if (full) batches_since_full = 0;
      have_full = true;
      picture(full);
    }
  }
  flush();
  if (spec.full_every == 0) {
    picture(true);
    ep.pipeline_s = labels_out - t0;
    for (std::size_t b = timed_end; b < pool.size(); b += batch) {
      for (std::size_t i = b; i < b + batch; ++i) ingest(pool[i], false);
      picture(false);
    }
  } else {
    ep.pipeline_s = labels_out - t0;
  }

  ep.frames_accepted -= monitor.nonfinite_frames();
  result.check(monitor.nonfinite_frames() == 0,
               "monitor rejected " + std::to_string(monitor.nonfinite_frames()) +
                   " frames");
  ep.health = std::string(arams::obs::to_string(monitor.health().state())) +
              " (" + monitor.health().state_reason() + ")";
  result.check(static_cast<int>(monitor.health().state()) <=
                   static_cast<int>(max_health),
               "health state at episode end is " + ep.health);
  ep.stats = monitor.sketch_stats();
  ep.final_ell = monitor.current_ell();
  ep.sketch_rel_error = monitor.sketch_error_estimate();
  return ep;
}

RunResult run_stream(const StreamSpec& spec, const RunOptions& options) {
  RunResult result;

  // Set-up: generate the pool from the seed and build the facade, repeated
  // (see setup_reps_done); the median is setup_s.
  std::vector<double> setup_s;
  std::vector<ShotEvent> pool;
  do {
    Stopwatch timer;
    pool = spec.generate(options.seed);
    const StreamingMonitor monitor(spec.config);
    setup_s.push_back(timer.seconds());
  } while (!setup_reps_done(setup_s));
  {
    // Warm-up: start the shared pool's workers and touch the code paths.
    StreamingMonitor warm(spec.config);
    for (std::size_t i = 0; i < 2 * spec.config.batch_size; ++i) {
      warm.ingest(pool[i]);
    }
    warm.flush();
  }
  const std::size_t pool_threads = arams::parallel::shared_pool().thread_count();
  const double start = now_seconds();

  std::vector<Episode> episodes;
  const double untraced_until =
      start + (options.trace ? 0.5 : 1.0) * options.seconds;
  const RegistrySnapshot reg_before = RegistrySnapshot::take();
  const double phase_start = now_seconds();
  while (start_another(episodes.size(), phase_start, untraced_until)) {
    episodes.push_back(run_episode(spec, pool, options.max_health, nullptr, result));
  }
  const double phase_wall = now_seconds() - phase_start;
  const RegistrySnapshot reg_delta = RegistrySnapshot::take().minus(reg_before);

  // Determinism: identical inputs → identical pictures in every episode.
  for (const Episode& ep : episodes) {
    result.check(ep.last_labels == episodes.front().last_labels &&
                     same_picture(ep.last_full, episodes.front().last_full),
                 "episodes over identical inputs produced different pictures");
  }
  const Episode& first = episodes.front();
  std::cout << "health at episode end: " << first.health << "; final ell "
            << first.final_ell << "\n";
  const SampledTrust trust = sampled_trustworthiness(
      first.last_full.latent, first.last_full.embedding);
  std::vector<double> errors;
  for (const Episode& ep : episodes) errors.push_back(ep.sketch_rel_error);
  const double rel_error = median(errors);
  check_quality(trust.value, rel_error, options, result);

  if (!options.trace) {
    std::vector<double> fps, updates, snaps, refreshes, pipeline;
    for (const Episode& ep : episodes) {
      fps.push_back(static_cast<double>(ep.frames_timed) / ep.ingest_seconds);
      updates.insert(updates.end(), ep.update_ms.begin(), ep.update_ms.end());
      snaps.insert(snaps.end(), ep.snapshot_s.begin(), ep.snapshot_s.end());
      refreshes.insert(refreshes.end(), ep.refresh_s.begin(),
                       ep.refresh_s.end());
      pipeline.push_back(ep.pipeline_s);
    }
    const std::string eps = std::to_string(episodes.size()) + " episodes";
    const double update_tail = percentile(updates, spec.tail_percentile);
    const std::string tail_label =
        "p" + std::to_string(static_cast<int>(spec.tail_percentile));
    result.add("ingest_fps", median(fps), "1/s", sample_note(fps, "median of episodes"));
    result.add("update_p50_ms", median(updates), "ms",
               sample_note(updates, "p50"));
    result.add("update_tail_ms", update_tail, "ms",
               sample_note(updates, tail_label));
    result.add("snapshot_p50_s", median(snaps), "s",
               sample_note(snaps, "p50"));
    result.add("refresh_p50_s", median(refreshes), "s",
               sample_note(refreshes, "p50"));
    result.add("pipeline_s", median(pipeline), "s",
               sample_note(pipeline, "median of episodes"));
    result.add("sketch_rel_error", rel_error, "ratio",
               "error-tracker sample, median of " + eps);
    result.add("trustworthiness", trust.value, "ratio",
               "k=12 on every " + std::to_string(trust.stride) +
                   ". row of the last full snapshot");
    result.add("setup_s", median(setup_s), "s", sample_note(setup_s, "median"));
    result.add("peak_rss_mb", peak_rss_mb(), "MiB");
    return result;
  }

  // ---- traced run: per-layer metrics ----
  std::map<std::string, double> layers;
  registry_layers(reg_delta, static_cast<double>(episodes.size()), phase_wall,
                  pool_threads, layers);
  {
    std::vector<double> ingest_us, update_ms;
    for (const Episode& ep : episodes) {
      ingest_us.insert(ingest_us.end(), ep.ingest_us.begin(), ep.ingest_us.end());
      update_ms.insert(update_ms.end(), ep.update_ms.begin(), ep.update_ms.end());
    }
    layers["stream.ingest_us"] = median(ingest_us);
    layers["stream.update_ms"] = median(update_ms);
  }
  layers["core.rows_in"] = static_cast<double>(first.frames_accepted);
  layers["core.rows_kept_frac"] =
      static_cast<double>(first.stats.rows_processed) /
      static_cast<double>(first.frames_accepted);
  layers["core.shrinks"] = static_cast<double>(first.stats.svd_count);
  layers["core.rank_increases"] = static_cast<double>(first.stats.rank_increases);
  layers["core.final_ell"] = static_cast<double>(first.final_ell);

  std::vector<double> untraced_facade;
  for (const Episode& ep : episodes) untraced_facade.push_back(ep.facade_s);

  arams::obs::tracer().clear();
  arams::obs::tracer().enable(true);
  std::vector<double> traced_facade;
  StreamReplay::Counts n;
  const double traced_until = start + options.seconds;
  const double traced_start = now_seconds();
  while (start_another(traced_facade.size(), traced_start, traced_until)) {
    StreamReplay replay(spec.config);
    const Episode ep = run_episode(spec, pool, options.max_health, &replay, result);
    traced_facade.push_back(ep.facade_s);
    n += replay.counts;
  }
  arams::obs::tracer().enable(false);

  const auto spans = arams::obs::tracer().spans();
  const std::map<std::string, double> self = self_times_us(spans, "bench.");
  const auto self_us = [&](const std::string& name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  const auto per = [](double total_us, long count, double scale) {
    return count > 0 ? total_us / static_cast<double>(count) * scale : 0.0;
  };
  layers["image.preprocess_us"] =
      per(self_us("bench.layer.image.preprocess"), n.frames, 1.0);
  layers["core.push_batch_ms"] =
      per(self_us("bench.layer.core.push_batch"), n.batches, 1e-3);
  layers["stream.health_ms"] =
      per(self_us("bench.layer.stream.health"), n.health_checks, 1e-3);
  layers["core.sketch_ms"] =
      per(self_us("bench.layer.core.sketch"), n.sketches, 1e-3);
  layers["embed.project_ms"] =
      per(self_us("bench.layer.embed.project"), n.projections, 1e-3);
  layers["embed.umap_ms"] =
      per(self_us("bench.layer.embed.umap"), n.umaps, 1e-3);
  layers["embed.knn_ms"] = per(n.knn_seconds * 1e6, n.umaps, 1e-3);
  layers["embed.layout_ms"] =
      layers["embed.umap_ms"] - layers["embed.knn_ms"];
  layers["embed.index_build_ms"] =
      per(self_us("bench.layer.embed.index_build"), n.umaps, 1e-3);
  layers["embed.transform_ms"] =
      per(self_us("bench.layer.embed.transform"), n.refreshes, 1e-3);
  layers["embed.insert_ms"] =
      per(self_us("bench.layer.embed.insert"), n.refreshes, 1e-3);
  layers["cluster.optics_ms"] =
      per(self_us("bench.layer.cluster.optics"), n.clusterings, 1e-3);

  double facade_us = 0.0, layer_us = 0.0;
  for (const auto& [name, us] : self) {
    if (name.rfind("bench.facade.", 0) == 0) facade_us += us;
    if (name.rfind("bench.layer.", 0) == 0) layer_us += us;
  }
  layers["stream.unaccounted_frac"] = (facade_us - layer_us) / facade_us;
  layers["obs.trace_overhead_frac"] =
      median(traced_facade) / median(untraced_facade) - 1.0;

  std::cout << "decomposition of " << traced_facade.size()
            << " traced episode(s): facade " << facade_us / 1e6 << " s\n";
  for (const auto& [name, us] : self) {
    if (name.rfind("bench.layer.", 0) == 0) {
      std::cout << "  " << name.substr(12) << "  self " << us / 1e6 << " s  ("
                << 100.0 * us / facade_us << "% of facade)\n";
    }
  }
  std::cout << "  unaccounted  " << (facade_us - layer_us) / 1e6 << " s  ("
            << 100.0 * (facade_us - layer_us) / facade_us << "%)\n";
  emit_layers(result, layers);
  return result;
}

}  // namespace

RunResult run_stream_ingest(const RunOptions& options) {
  return run_stream(stream_ingest_spec(), options);
}

RunResult run_stream_snapshot(const RunOptions& options) {
  return run_stream(stream_snapshot_spec(), options);
}

}  // namespace perfbench
