#pragma once
// MonitoringPipeline — the Fig. 4 schematic as one public API.
//
// Stage 1  preprocess   threshold / center / normalize each frame
// Stage 2  sketch       ARAMS over range-partitioned shards, tree-merged
// Stage 3  project      PCA latent projection from the global sketch
// Stage 4  visualize    UMAP to 2-D
// Stage 5  analyze      OPTICS clustering + FastABOD outlier scores

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/abod.hpp"
#include "cluster/hdbscan.hpp"
#include "cluster/kmeans.hpp"
#include "cluster/optics.hpp"
#include "core/arams_sketch.hpp"
#include "core/sketcher.hpp"
#include "embed/umap.hpp"
#include "image/preprocess.hpp"
#include "obs/stage_report.hpp"
#include "stream/event.hpp"
#include "util/stopwatch.hpp"

namespace arams::stream {

struct PipelineConfig {
  image::PreprocessConfig preprocess;
  core::AramsConfig sketch;
  /// Sketching backend by factory name (core::make_sketcher). "arams" (the
  /// default) runs the paper's range-partitioned + tree-merged path and
  /// consumes the full `sketch` config; every other registered backend
  /// ("fd", "isvd", "gaussian", "countsketch", "normsample",
  /// "rangefinder") runs a single streaming instance over all rows, taking
  /// ell/seed from `sketch`.
  std::string sketcher = "arams";
  /// Concurrent in-process ingest shards for the factory sketcher path
  /// (core::ShardedSketcher on the shared pool, pool-executed tree merge
  /// at sketch time). 1 (default) keeps the classic single-instance /
  /// range-partitioned behavior bitwise unchanged; > 1 routes stage 2 through
  /// "sharded:<sketcher>". Orthogonal to `num_cores`, which drives the
  /// arams-only range-partitioned path.
  std::size_t shards = 1;
  /// Ingest lane precision. kF64 (default) is the bitwise-unchanged
  /// classic path. kF32 narrows frames at the door, preprocesses at fp32,
  /// and feeds stage 2 fp32 rows (native mixed-precision for
  /// arams/fd/gaussian/countsketch, widening shim for the rest) — halving
  /// ingest memory traffic while every accumulation stays fp64. The lane
  /// changes precision only: stage 2 runs the same topology on both lanes
  /// (`num_cores` range partitions for arams, `shards` for the factory
  /// path).
  enum class IngestPrecision { kF64, kF32 };
  IngestPrecision ingest_precision = IngestPrecision::kF64;
  /// Range-partitioned ARAMS instances (seed + c each), sketched serially
  /// over row views and tree-merged; the default arams path with
  /// shards == 1, on either ingest lane.
  std::size_t num_cores = 4;
  std::size_t pca_components = 15;   ///< latent dimension fed to UMAP
  embed::UmapConfig umap;
  /// Which clusterer labels the embedding. OPTICS is the paper's choice;
  /// HDBSCAN is the robust alternative when cluster densities differ (its
  /// package ships in the paper's artifact env); k-means is for operators
  /// who know the class count.
  enum class ClusterMethod { kOptics, kHdbscan, kKmeans };
  ClusterMethod cluster_method = ClusterMethod::kOptics;
  cluster::OpticsConfig optics;
  cluster::HdbscanConfig hdbscan;
  cluster::KmeansConfig kmeans;
  /// Scale optics.min_pts / hdbscan sizes up to ~n/10 (capped at 30) so
  /// density estimates smooth over UMAP's local clumping on larger
  /// embeddings.
  bool scale_min_pts = true;
  double cluster_quantile = 0.9;     ///< extract_auto reachability quantile
  std::size_t abod_k = 10;           ///< 0 disables outlier scoring

  /// Human-readable configuration errors (including the nested sketch
  /// config's), empty when usable. Called at MonitoringPipeline
  /// construction so a bad config fails at the API boundary.
  [[nodiscard]] std::vector<std::string> validate() const;

  /// The core::SketcherConfig this pipeline config selects: `sketcher` as
  /// the backend, the nested AramsConfig carried whole, and its ell/seed
  /// mirrored into the scalar knobs the simple backends read.
  [[nodiscard]] core::SketcherConfig sketcher_config() const;
};

struct PipelineResult {
  linalg::Matrix sketch;          ///< global merged sketch (≤ ℓ × d)
  linalg::Matrix latent;          ///< n × pca_components
  linalg::Matrix embedding;       ///< n × 2
  std::vector<int> labels;        ///< OPTICS cluster labels (−1 = noise)
  std::vector<double> outlier_scores;  ///< ABOF per point (low = outlier)
  /// Row ↔ shot mapping; filled by analyze_events, empty otherwise.
  std::vector<std::uint64_t> shot_ids;
  cluster::OpticsResult optics;
  std::size_t final_ell = 0;

  /// Per-stage timings ("preprocess", "sketch", "project", "embed",
  /// "cluster", "merge") plus the sketch/merge operation counters.
  obs::StageReport report;
};

/// Batch analysis facade over the whole pipeline. All public entry points
/// are thin adapters over one internal stage runner, so every caller gets
/// identical plumbing, telemetry and reporting.
class MonitoringPipeline {
 public:
  explicit MonitoringPipeline(const PipelineConfig& config);

  /// Full pipeline over raw detector frames. With
  /// IngestPrecision::kF32 the frames are narrowed at the door and the
  /// fp32 lane runs end-to-end.
  PipelineResult analyze(const std::vector<image::ImageF>& frames) const;

  /// Full pipeline over fp32 detector frames — the mixed-precision ingest
  /// lane, regardless of `ingest_precision` (the frames are already fp32;
  /// widening them first would only add traffic).
  PipelineResult analyze(const std::vector<image::ImageF32>& frames) const;

  /// Full pipeline over shot events (uses their frames; result rows carry
  /// the events' shot ids).
  PipelineResult analyze_events(const std::vector<ShotEvent>& events) const;

  /// Pipeline over already-flattened rows (skips stage 1). Always the
  /// fp64 lane: the rows are fp64 already.
  PipelineResult analyze_matrix(const linalg::Matrix& rows) const;

  /// Pipeline over already-flattened fp32 rows (skips stage 1); the
  /// sketch stage consumes the float rows directly, the tail stages see
  /// them widened once.
  PipelineResult analyze_matrix(linalg::MatrixViewF rows) const;

  [[nodiscard]] const PipelineConfig& config() const { return config_; }

 private:
  /// Stage 1 + run_stages over frames of either pixel type (fp64 frames
  /// under kF32 are narrowed at the door first).
  template <typename T>
  PipelineResult analyze_frames(
      const std::vector<image::BasicImage<T>>& frames,
      std::vector<std::uint64_t> shot_ids) const;

  /// Stages 2–5 over pre-flattened rows of either lane. `Rows` is a type
  /// the Sketcher seam takes: Matrix (fp64) or MatrixViewF (fp32). Stage 2
  /// consumes the rows at their own precision; the fp64 tail sees fp32
  /// rows widened once. `report` carries the stage-1 entry, if any.
  template <typename Rows>
  PipelineResult run_stages(const Rows& rows,
                            std::vector<std::uint64_t> shot_ids,
                            obs::StageReport report = {}) const;

  /// Stages 3–5 (project / embed / cluster), shared by both lanes.
  void run_tail_stages(const linalg::Matrix& rows, PipelineResult& result,
                       Stopwatch& timer) const;

  PipelineConfig config_;
};

/// Stage 5's labelling, shared by the batch and streaming facades: runs
/// `config.cluster_method` over `embedding`, with OPTICS min_pts and the
/// HDBSCAN sizes scaled up to ~n/10 (capped at 30) when
/// `config.scale_min_pts` is set. OPTICS also fills `optics` when given.
std::vector<int> cluster_embedding(const linalg::Matrix& embedding,
                                   const PipelineConfig& config,
                                   linalg::Workspace& ws,
                                   cluster::OpticsResult* optics = nullptr);

/// Publishes the "ingest.precision" gauge (32 or 64) — the one place both
/// facades (MonitoringPipeline, StreamingMonitor) set it, so dashboards can
/// correlate throughput shifts with the precision switch.
void publish_ingest_precision(PipelineConfig::IngestPrecision precision);

}  // namespace arams::stream
