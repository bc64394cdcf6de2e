#include "stream/pipeline.hpp"

#include <algorithm>
#include <array>
#include <span>
#include <sstream>
#include <type_traits>

#include "core/merge.hpp"
#include "embed/pca.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/window.hpp"
#include "util/check.hpp"
#include "util/stopwatch.hpp"

namespace arams::stream {

using linalg::Matrix;

namespace {

/// Trailing-window latency per pipeline stage: repeated analyze() calls
/// (the snapshot cadence of a long run) land each stage's wall time here,
/// so an operator sees "embed p95 over the last few minutes", not the
/// lifetime mean. Stage seconds live well above the default 10 s latency
/// ceiling for big inputs, so the bounds extend into minutes.
obs::SlidingHistogram& stage_window(const char* metric) {
  static constexpr std::array<double, 10> kBounds = {
      1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0, 300.0};
  return obs::metrics().sliding_histogram(
      metric, /*window_seconds=*/300.0, /*epochs=*/6,
      std::span<const double>(kBounds));
}

/// Books one finished stage: its trailing window, its StageReport seconds
/// under `name`, and one stage_complete flight event (stage id in
/// `detail`, wall seconds in `value`) — the per-stage breadcrumb a
/// post-mortem tail shows for the run's final moments. Callers look the
/// window up by its literal metric name so tools/check_metrics_doc.sh
/// still sees every name.
void book_stage(obs::SlidingHistogram& window, const char* name,
                obs::FlightStage stage, double seconds,
                obs::StageReport& report) {
  window.record(seconds);
  report.set_seconds(name, seconds);
  obs::flight_recorder().record(obs::FlightCode::kStageComplete, 0,
                                static_cast<std::uint32_t>(stage), seconds);
}

}  // namespace

void publish_ingest_precision(PipelineConfig::IngestPrecision precision) {
  static obs::Gauge& gauge = obs::metrics().gauge("ingest.precision");
  gauge.set(precision == PipelineConfig::IngestPrecision::kF32 ? 32.0 : 64.0);
}

std::vector<std::string> PipelineConfig::validate() const {
  std::vector<std::string> errors = sketch.validate();
  const auto fmt = [](const auto& value) {
    std::ostringstream out;
    out << value;
    return out.str();
  };
  if (!core::sketcher_registered(sketcher)) {
    std::string registered;
    for (const auto& name : core::registered_sketchers()) {
      if (!registered.empty()) registered += ", ";
      registered += name;
    }
    errors.push_back("unknown sketcher backend '" + sketcher +
                     "' (registered: " + registered + ")");
  }
  if (num_cores < 1) {
    errors.push_back("num_cores must be >= 1, got " + fmt(num_cores));
  }
  if (shards < 1) {
    errors.push_back("shards must be >= 1, got " + fmt(shards));
  }
  if (pca_components == 0) {
    errors.push_back("pca_components must be >= 1");
  }
  if (umap.n_neighbors < 2) {
    errors.push_back("umap.n_neighbors must be >= 2, got " +
                     fmt(umap.n_neighbors));
  }
  for (const std::string& e : umap.knn.validate()) {
    errors.push_back("umap.knn: " + e);
  }
  if (!(cluster_quantile > 0.0 && cluster_quantile <= 1.0)) {
    errors.push_back("cluster_quantile must be in (0, 1], got " +
                     fmt(cluster_quantile));
  }
  if (abod_k == 1) {
    errors.push_back("abod_k must be 0 (disabled) or >= 2");
  }
  return errors;
}

core::SketcherConfig PipelineConfig::sketcher_config() const {
  core::SketcherConfig out;
  out.backend = sketcher;
  out.shards = shards;
  out.arams = sketch;
  out.ell = sketch.ell;
  out.seed = sketch.seed;
  return out;
}

MonitoringPipeline::MonitoringPipeline(const PipelineConfig& config)
    : config_(config) {
  const std::vector<std::string> errors = config.validate();
  if (!errors.empty()) {
    std::string joined;
    for (const auto& e : errors) {
      if (!joined.empty()) joined += "; ";
      joined += e;
    }
    ARAMS_CHECK(false, "invalid PipelineConfig: " + joined);
  }
}

PipelineResult MonitoringPipeline::analyze(
    const std::vector<image::ImageF>& frames) const {
  return analyze_frames(frames, {});
}

PipelineResult MonitoringPipeline::analyze(
    const std::vector<image::ImageF32>& frames) const {
  return analyze_frames(frames, {});
}

PipelineResult MonitoringPipeline::analyze_events(
    const std::vector<ShotEvent>& events) const {
  std::vector<image::ImageF> frames;
  std::vector<std::uint64_t> shot_ids;
  frames.reserve(events.size());
  shot_ids.reserve(events.size());
  for (const auto& e : events) {
    frames.push_back(e.frame);
    shot_ids.push_back(e.shot_id);
  }
  return analyze_frames(frames, std::move(shot_ids));
}

PipelineResult MonitoringPipeline::analyze_matrix(const Matrix& rows) const {
  const obs::ScopedSpan span("pipeline.analyze");
  return run_stages(rows, {});
}

PipelineResult MonitoringPipeline::analyze_matrix(
    linalg::MatrixViewF rows) const {
  const obs::ScopedSpan span("pipeline.analyze");
  return run_stages(rows, {});
}

template <typename T>
PipelineResult MonitoringPipeline::analyze_frames(
    const std::vector<image::BasicImage<T>>& frames,
    std::vector<std::uint64_t> shot_ids) const {
  ARAMS_CHECK(!frames.empty(), "no frames to analyze");
  if constexpr (std::is_same_v<T, double>) {
    if (config_.ingest_precision == PipelineConfig::IngestPrecision::kF32) {
      // Narrow at the door: one cast pass over the raw pixels, then every
      // downstream ingest step moves half the bytes.
      std::vector<image::ImageF32> narrowed;
      narrowed.reserve(frames.size());
      for (const auto& frame : frames) {
        narrowed.push_back(image::narrow(frame));
      }
      return analyze_frames(narrowed, std::move(shot_ids));
    }
  }
  const obs::ScopedSpan span("pipeline.analyze");
  Stopwatch timer;
  linalg::BasicMatrix<T> rows;
  {
    // --- stage 1: per-frame preprocessing at the lane's precision (fp32
    // kernels reduce in double, NaN guards identical to the fp64 lane) ---
    const obs::ScopedSpan stage_span("pipeline.preprocess");
    rows = image::images_to_matrix(
        image::preprocess_batch(frames, config_.preprocess));
  }
  obs::StageReport report;
  book_stage(stage_window("pipeline.preprocess_seconds_window"), "preprocess",
             obs::FlightStage::kPreprocess, timer.seconds(), report);
  if constexpr (std::is_same_v<T, float>) {
    return run_stages(linalg::MatrixViewF(rows), std::move(shot_ids),
                      std::move(report));
  } else {
    return run_stages(rows, std::move(shot_ids), std::move(report));
  }
}

template <typename Rows>
PipelineResult MonitoringPipeline::run_stages(
    const Rows& rows, std::vector<std::uint64_t> shot_ids,
    obs::StageReport report) const {
  using T = typename Rows::value_type;
  constexpr bool kF32 = std::is_same_v<T, float>;
  ARAMS_CHECK(rows.rows() >= 2, "need at least two rows");
  ARAMS_CHECK(shot_ids.empty() || shot_ids.size() == rows.rows(),
              "shot id count does not match row count");
  PipelineResult result;
  result.shot_ids = std::move(shot_ids);
  result.report = std::move(report);
  publish_ingest_precision(kF32 ? PipelineConfig::IngestPrecision::kF32
                                : PipelineConfig::IngestPrecision::kF64);
  Stopwatch timer;

  // --- stage 2: range-partitioned ARAMS, tree-merged; or any other
  // factory-registered backend as a single streaming instance. The choice
  // depends on the backend and `shards`, never on the lane: both
  // precisions run the same topology. ---
  {
    const obs::ScopedSpan stage_span("pipeline.sketch");
    if (config_.sketcher != "arams" || config_.shards > 1) {
      // Non-ARAMS backends run one streaming instance over all rows; with
      // shards > 1 the factory wraps any backend (arams included) in a
      // ShardedSketcher — concurrent round-robin ingest on the shared
      // pool, pool-executed tree merge at sketch time. fp32 rows enter
      // through the Sketcher fp32 seam.
      const std::unique_ptr<core::Sketcher> sketcher =
          core::make_sketcher(config_.sketcher_config());
      sketcher->push_batch(rows);
      result.sketch = sketcher->sketch();
      result.final_ell = sketcher->current_ell();
      sketcher->report(result.report);
    } else {
      // num_cores range-partitioned Arams instances (seed + c) over row
      // views, run serially, then tree-merged at the largest final ℓ.
      const linalg::BasicMatrixView<T> all(rows);
      const std::size_t n = all.rows();
      const std::size_t cores = std::min<std::size_t>(config_.num_cores, n);
      std::vector<Matrix> sketches;
      sketches.reserve(cores);
      std::size_t final_ell = config_.sketch.ell;
      core::SketchStats sketch_stats;
      for (std::size_t c = 0; c < cores; ++c) {
        const std::size_t r0 = c * n / cores;
        const std::size_t r1 = (c + 1) * n / cores;
        if (r1 <= r0) continue;
        core::AramsConfig shard_config = config_.sketch;
        shard_config.seed = config_.sketch.seed + c;
        core::Arams sketcher(shard_config);
        core::AramsResult shard = sketcher.sketch_matrix(
            linalg::BasicMatrixView<T>::rows_of(all, r0, r1));
        if (shard.sketch.empty()) continue;
        sketch_stats += core::sketch_stats_from_report(shard.report);
        final_ell = std::max(final_ell, shard.final_ell);
        sketches.push_back(std::move(shard.sketch));
      }
      core::append_to_report(sketch_stats, result.report);
      result.final_ell = final_ell;
      core::MergeStats merge_stats;
      result.sketch = (sketches.size() == 1)
                          ? std::move(sketches.front())
                          : core::tree_merge(std::move(sketches), final_ell,
                                             2, &merge_stats);
      core::append_to_report(merge_stats, result.report);
      if constexpr (kF32) {
        result.report.add_counter("rows_ingested_f32",
                                  static_cast<long>(rows.rows()));
      }
    }
  }
  book_stage(stage_window("pipeline.sketch_seconds_window"), "sketch",
             obs::FlightStage::kSketch, timer.lap(), result.report);

  if constexpr (kF32) {
    // The analysis tail (PCA projection of the raw rows, UMAP,
    // clustering) is fp64; widen the rows exactly once, charging it to
    // the report so the lane's conversion cost stays visible.
    Matrix wide;
    linalg::widen(rows, wide);
    result.report.add_seconds("ingest_widen", timer.lap());
    run_tail_stages(wide, result, timer);
  } else {
    run_tail_stages(rows, result, timer);
  }
  return result;
}

void MonitoringPipeline::run_tail_stages(const Matrix& rows,
                                         PipelineResult& result,
                                         Stopwatch& timer) const {
  // --- stage 3: PCA latent projection of the *original* rows ---
  {
    const obs::ScopedSpan stage_span("pipeline.project");
    const embed::PcaProjector pca(result.sketch, config_.pca_components);
    result.latent = pca.project(rows);
  }
  book_stage(stage_window("pipeline.project_seconds_window"), "project",
             obs::FlightStage::kProject, timer.lap(), result.report);

  // --- stage 4: UMAP to 2-D ---
  {
    const obs::ScopedSpan stage_span("pipeline.embed");
    result.embedding = embed::umap_embed(
        result.latent,
        embed::clamp_neighbors(config_.umap, result.latent.rows()));
  }
  book_stage(stage_window("pipeline.embed_seconds_window"), "embed",
             obs::FlightStage::kEmbed, timer.lap(), result.report);

  // --- stage 5: density clustering + ABOD outlier scores ---
  {
    const obs::ScopedSpan stage_span("pipeline.cluster");
    linalg::Workspace ws;
    result.labels =
        cluster_embedding(result.embedding, config_, ws, &result.optics);
    if (config_.abod_k >= 2 && result.embedding.rows() > config_.abod_k) {
      result.outlier_scores = cluster::fast_abod(
          result.embedding, cluster::AbodConfig{.k = config_.abod_k});
    }
  }
  book_stage(stage_window("pipeline.cluster_seconds_window"), "cluster",
             obs::FlightStage::kCluster, timer.lap(), result.report);
}

std::vector<int> cluster_embedding(const Matrix& embedding,
                                   const PipelineConfig& config,
                                   linalg::Workspace& ws,
                                   cluster::OpticsResult* optics) {
  const std::size_t n = embedding.rows();
  const std::size_t scaled_min_pts =
      config.scale_min_pts ? std::min<std::size_t>(n / 10, 30) : 0;
  switch (config.cluster_method) {
    case PipelineConfig::ClusterMethod::kKmeans: {
      cluster::KmeansConfig kmeans_config = config.kmeans;
      kmeans_config.k = std::min<std::size_t>(kmeans_config.k, n);
      return cluster::kmeans(embedding, kmeans_config, ws).labels;
    }
    case PipelineConfig::ClusterMethod::kHdbscan: {
      cluster::HdbscanConfig hdbscan_config = config.hdbscan;
      hdbscan_config.min_samples = std::min<std::size_t>(
          std::max(hdbscan_config.min_samples, scaled_min_pts), n - 1);
      hdbscan_config.min_cluster_size =
          std::max(hdbscan_config.min_cluster_size, scaled_min_pts);
      return cluster::hdbscan(embedding, hdbscan_config).labels;
    }
    case PipelineConfig::ClusterMethod::kOptics:
      break;
  }
  cluster::OpticsConfig optics_config = config.optics;
  optics_config.min_pts = std::min<std::size_t>(
      std::max(optics_config.min_pts, scaled_min_pts), n);
  cluster::OpticsResult result = cluster::optics(embedding, optics_config, ws);
  std::vector<int> labels =
      cluster::extract_auto(result, config.cluster_quantile);
  if (optics != nullptr) *optics = std::move(result);
  return labels;
}

}  // namespace arams::stream
