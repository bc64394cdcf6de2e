// batch-diffraction: MonitoringPipeline::analyze over a fixed set of
// diffraction frames, called back to back by one closed-loop producer.
//
// Every analyze() call sees the same frames, so every call must return the
// same picture (checked). The traced run first repeats the untraced calls
// (registry deltas, untraced wall), then runs calls under a span, each
// followed by the same work through the public layer functions — preprocess,
// per-shard Arams::sketch_matrix, tree_merge, PCA, UMAP, OPTICS, FastABOD —
// whose outputs must match the facade's bit for bit. It also prints the
// benchmark's own stage timings beside the StageReport and the registry's
// stage windows, flagging any disagreement.

#include <algorithm>
#include <cmath>
#include <iostream>
#include <map>

#include "cluster/abod.hpp"
#include "cluster/metrics.hpp"
#include "cluster/optics.hpp"
#include "core/arams_sketch.hpp"
#include "core/merge.hpp"
#include "data/diffraction.hpp"
#include "embed/pca.hpp"
#include "embed/umap.hpp"
#include "image/preprocess.hpp"
#include "linalg/blas.hpp"
#include "linalg/norms.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/window.hpp"
#include "parallel/thread_pool.hpp"
#include "stream/pipeline.hpp"
#include "stream/source.hpp"
#include "util/stopwatch.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using arams::Stopwatch;
using arams::linalg::Matrix;
using arams::stream::MonitoringPipeline;
using arams::stream::PipelineConfig;
using arams::stream::PipelineResult;

constexpr std::size_t kFrames = 4096;

struct Inputs {
  std::vector<arams::image::ImageF> frames;
  std::vector<int> classes;  ///< latent class of each frame
};

Inputs generate(std::uint64_t seed) {
  arams::data::DiffractionConfig diffraction;
  diffraction.height = 64;
  diffraction.width = 64;
  diffraction.num_classes = 4;
  arams::stream::DiffractionSource source(diffraction, kFrames, 120.0, seed);
  Inputs in;
  in.frames.reserve(kFrames);
  in.classes.reserve(kFrames);
  while (auto event = source.next()) {
    in.frames.push_back(std::move(event->frame));
    in.classes.push_back(event->truth_label);
  }
  return in;
}

bool same_result(const PipelineResult& a, const PipelineResult& b) {
  return bitwise_equal(a.sketch, b.sketch) && bitwise_equal(a.latent, b.latent) &&
         bitwise_equal(a.embedding, b.embedding) && a.labels == b.labels &&
         a.outlier_scores == b.outlier_scores;
}

/// The analyze() stages through the public layer functions, each under a
/// "bench.layer.<name>" span, on the facade's config (default
/// PipelineConfig: fp64 lane, range-partitioned ARAMS over num_cores
/// shards run serially, tree_merge, PCA, UMAP, OPTICS, FastABOD).
PipelineResult replay(const PipelineConfig& config,
                      const std::vector<arams::image::ImageF>& frames,
                      double& knn_seconds) {
  PipelineResult out;
  Matrix rows;
  {
    const arams::obs::ScopedSpan span("bench.layer.image.preprocess");
    rows = arams::image::images_to_matrix(
        arams::image::preprocess_batch(frames, config.preprocess));
  }
  std::vector<Matrix> sketches;
  std::size_t final_ell = config.sketch.ell;
  {
    const arams::obs::ScopedSpan span("bench.layer.core.sketch");
    const std::size_t n = rows.rows();
    const std::size_t cores = std::min<std::size_t>(config.num_cores, n);
    for (std::size_t c = 0; c < cores; ++c) {
      const std::size_t r0 = c * n / cores;
      const std::size_t r1 = (c + 1) * n / cores;
      if (r1 <= r0) continue;
      arams::core::AramsConfig shard = config.sketch;
      shard.seed = config.sketch.seed + c;
      arams::core::Arams sketcher(shard);
      arams::core::AramsResult part =
          sketcher.sketch_matrix(rows.slice_rows(r0, r1));
      if (part.sketch.empty()) continue;
      final_ell = std::max(final_ell, part.final_ell);
      sketches.push_back(std::move(part.sketch));
    }
  }
  {
    const arams::obs::ScopedSpan span("bench.layer.core.merge");
    out.sketch = sketches.size() == 1
                     ? std::move(sketches.front())
                     : arams::core::tree_merge(std::move(sketches), final_ell);
  }
  {
    const arams::obs::ScopedSpan span("bench.layer.embed.project");
    const arams::embed::PcaProjector pca(out.sketch, config.pca_components);
    out.latent = pca.project(rows);
  }
  {
    const arams::obs::ScopedSpan span("bench.layer.embed.umap");
    arams::embed::UmapConfig umap = config.umap;
    umap.n_neighbors = std::min(umap.n_neighbors, out.latent.rows() - 1);
    const RegistrySnapshot before = RegistrySnapshot::take();
    out.embedding = arams::embed::umap_embed(out.latent, umap);
    const RegistrySnapshot d = RegistrySnapshot::take().minus(before);
    knn_seconds += d.hist_sum("embed.ann_build_seconds") +
                   d.hist_sum("embed.ann_query_seconds");
  }
  {
    const arams::obs::ScopedSpan span("bench.layer.cluster.optics");
    arams::cluster::OpticsConfig optics = config.optics;
    if (config.scale_min_pts) {
      optics.min_pts = std::max(
          optics.min_pts, std::min<std::size_t>(out.embedding.rows() / 10, 30));
    }
    optics.min_pts = std::min<std::size_t>(optics.min_pts, out.embedding.rows());
    out.optics = arams::cluster::optics(out.embedding, optics);
    out.labels = arams::cluster::extract_auto(out.optics, config.cluster_quantile);
  }
  {
    const arams::obs::ScopedSpan span("bench.layer.cluster.abod");
    out.outlier_scores = arams::cluster::fast_abod(
        out.embedding, arams::cluster::AbodConfig{config.abod_k, {}});
  }
  return out;
}

/// The registry's trailing window for one pipeline stage.
arams::obs::WindowStats stage_window(const char* stage) {
  return arams::obs::metrics()
      .sliding_histogram(std::string("pipeline.") + stage + "_seconds_window")
      .stats();
}

double stage_sum(const arams::obs::StageReport& report,
                 std::initializer_list<const char*> stages) {
  double s = 0.0;
  for (const char* stage : stages) s += report.seconds(stage);
  return s;
}

}  // namespace

RunResult run_batch_diffraction(const RunOptions& options) {
  RunResult result;
  const PipelineConfig config;  // the batch facade's defaults

  std::vector<double> setup_s;
  Inputs in;
  do {
    Stopwatch timer;
    in = generate(options.seed);
    const MonitoringPipeline pipeline(config);
    setup_s.push_back(timer.seconds());
  } while (!setup_reps_done(setup_s));
  const MonitoringPipeline pipeline(config);
  {
    // Warm-up on a slice: starts the pool's workers, faults in the code.
    const std::vector<arams::image::ImageF> slice(in.frames.begin(),
                                                  in.frames.begin() + 512);
    (void)pipeline.analyze(slice);
  }
  const std::size_t pool_threads = arams::parallel::shared_pool().thread_count();
  const double n = static_cast<double>(in.frames.size());
  const double start = now_seconds();
  std::map<std::string, arams::obs::WindowStats> windows_before;
  for (const char* stage : {"preprocess", "sketch", "project", "embed", "cluster"}) {
    windows_before[stage] = stage_window(stage);
  }

  std::vector<PipelineResult> results;
  std::vector<double> walls;
  const auto call = [&](bool traced) {
    Stopwatch timer;
    PipelineResult r;
    {
      const BenchSpan span(traced, "bench.facade.analyze");
      r = pipeline.analyze(in.frames);
    }
    walls.push_back(timer.seconds());
    ++result.attempted;
    result.check(r.labels.size() == in.frames.size() &&
                     r.outlier_scores.size() == in.frames.size() &&
                     all_finite(r.embedding) && all_finite(r.latent) &&
                     std::all_of(r.outlier_scores.begin(),
                                 r.outlier_scores.end(),
                                 [](double v) { return std::isfinite(v); }),
                 "analyze: non-finite output or row count mismatch");
    if (!results.empty()) {
      result.check(same_result(r, results.front()),
                   "analyze calls over identical frames returned different "
                   "results");
    }
    results.push_back(std::move(r));
  };

  const double untraced_until =
      start + (options.trace ? 0.5 : 1.0) * options.seconds;
  const RegistrySnapshot reg_before = RegistrySnapshot::take();
  const double phase_start = now_seconds();
  while (start_another(results.size(), phase_start, untraced_until)) {
    call(false);
  }
  const double phase_wall = now_seconds() - phase_start;
  const RegistrySnapshot reg_delta = RegistrySnapshot::take().minus(reg_before);
  const std::size_t untraced_calls = results.size();

  // Quality, once per run: every call returned the same picture.
  const PipelineResult& first = results.front();
  const Matrix rows = arams::image::images_to_matrix(
      arams::image::preprocess_batch(in.frames, config.preprocess));
  const arams::embed::PcaProjector span_basis(first.sketch, first.sketch.rows());
  const double rel_error =
      arams::linalg::projection_residual_exact(rows, span_basis.basis()) /
      arams::linalg::frobenius_norm_squared(rows);
  const SampledTrust trust =
      sampled_trustworthiness(first.latent, first.embedding);
  const double ari = arams::cluster::adjusted_rand_index(first.labels, in.classes);
  std::cout << "ari: " << ari << " against the 4 latent classes (floor "
            << options.floor_ari << "; known gap: ~0.78 at 400 frames)\n";
  result.check(ari >= options.floor_ari, "ari " + std::to_string(ari) +
                                             " below floor " +
                                             std::to_string(options.floor_ari));
  check_quality(trust.value, rel_error, options, result);

  if (!options.trace) {
    std::vector<double> fps, update_ms, snapshot_s, refresh_s;
    for (const PipelineResult& r : results) {
      fps.push_back(n / stage_sum(r.report, {"preprocess", "sketch"}));
      update_ms.push_back(r.report.seconds("sketch") * 1e3);
      snapshot_s.push_back(stage_sum(r.report, {"project", "embed", "cluster"}));
      refresh_s.push_back(stage_sum(r.report, {"project", "cluster"}));
    }
    // One sample per call and ~8 calls a run: no percentile leaves ten
    // samples beyond it, so the tail is the upper quartile (the maximum of
    // so few samples spread up to half its median between runs of one code).
    const double update_tail = percentile(update_ms, 75.0);
    result.add("ingest_fps", median(fps), "1/s",
               sample_note(fps, "median; frames / StageReport preprocess+sketch"));
    result.add("update_p50_ms", median(update_ms), "ms",
               sample_note(update_ms, "p50; StageReport sketch stage"));
    result.add("update_tail_ms", update_tail, "ms",
               sample_note(update_ms, "p75; StageReport sketch stage"));
    result.add("snapshot_p50_s", median(snapshot_s), "s",
               sample_note(snapshot_s, "p50; project+embed+cluster"));
    result.add("refresh_p50_s", median(refresh_s), "s",
               sample_note(refresh_s, "p50; project+cluster"));
    result.add("pipeline_s", median(walls), "s",
               sample_note(walls, "p50 of analyze() walls"));
    result.add("sketch_rel_error", rel_error, "ratio",
               "all preprocessed rows vs the merged sketch's row space");
    result.add("trustworthiness", trust.value, "ratio",
               "k=12 on every " + std::to_string(trust.stride) +
                   ". row of the picture");
    result.add("setup_s", median(setup_s), "s", sample_note(setup_s, "median"));
    result.add("peak_rss_mb", peak_rss_mb(), "MiB");
    return result;
  }

  // ---- traced run: per-layer metrics ----
  std::map<std::string, double> layers;
  registry_layers(reg_delta, static_cast<double>(untraced_calls), phase_wall,
                  pool_threads, layers);
  const arams::obs::StageReport& report = first.report;
  layers["core.rows_in"] = n;
  layers["core.rows_kept_frac"] =
      static_cast<double>(report.counter("rows_processed")) / n;
  layers["core.shrinks"] = static_cast<double>(report.counter("svd_count"));
  layers["core.rank_increases"] =
      static_cast<double>(report.counter("rank_increases"));
  layers["core.final_ell"] = static_cast<double>(first.final_ell);

  arams::obs::tracer().clear();
  arams::obs::tracer().enable(true);
  double knn_seconds = 0.0;
  long replays = 0;
  const double traced_until = start + options.seconds;
  const double traced_start = now_seconds();
  while (start_another(static_cast<std::size_t>(replays), traced_start,
                       traced_until)) {
    call(true);
    const PipelineResult again = replay(config, in.frames, knn_seconds);
    ++replays;
    result.check(same_result(results.back(), again),
                 "replay of analyze differs from the facade output");
  }
  arams::obs::tracer().enable(false);

  const std::map<std::string, double> self =
      self_times_us(arams::obs::tracer().spans(), "bench.");
  const auto per_call_ms = [&](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0
                            : it->second / static_cast<double>(replays) * 1e-3;
  };
  layers["image.preprocess_us"] =
      per_call_ms("bench.layer.image.preprocess") * 1e3 / n;
  layers["core.sketch_ms"] = per_call_ms("bench.layer.core.sketch");
  layers["core.merge_ms"] = per_call_ms("bench.layer.core.merge");
  layers["embed.project_ms"] = per_call_ms("bench.layer.embed.project");
  layers["embed.umap_ms"] = per_call_ms("bench.layer.embed.umap");
  layers["embed.knn_ms"] = knn_seconds / static_cast<double>(replays) * 1e3;
  layers["embed.layout_ms"] = layers["embed.umap_ms"] - layers["embed.knn_ms"];
  layers["cluster.optics_ms"] = per_call_ms("bench.layer.cluster.optics");
  layers["cluster.abod_ms"] = per_call_ms("bench.layer.cluster.abod");

  const double facade_ms = per_call_ms("bench.facade.analyze");
  double layer_ms = 0.0;
  for (const auto& [name, us] : self) {
    if (name.rfind("bench.layer.", 0) == 0) {
      layer_ms += us / static_cast<double>(replays) * 1e-3;
    }
  }
  layers["stream.unaccounted_frac"] = (facade_ms - layer_ms) / facade_ms;
  const std::vector<double> untraced(walls.begin(),
                                     walls.begin() + static_cast<long>(untraced_calls));
  const std::vector<double> traced(walls.begin() + static_cast<long>(untraced_calls),
                                   walls.end());
  layers["obs.trace_overhead_frac"] = median(traced) / median(untraced) - 1.0;

  // Cross-check: the benchmark's own stage timing (replay spans), the
  // facade's StageReport (mean over the traced calls) and the registry's
  // trailing stage windows (mean over every call this run made).
  struct Row {
    const char* stage;
    std::vector<const char*> spans;
  };
  const Row rows_to_check[] = {
      {"preprocess", {"bench.layer.image.preprocess"}},
      {"sketch", {"bench.layer.core.sketch", "bench.layer.core.merge"}},
      {"project", {"bench.layer.embed.project"}},
      {"embed", {"bench.layer.embed.umap"}},
      {"cluster", {"bench.layer.cluster.optics", "bench.layer.cluster.abod"}},
  };
  std::cout << "stage cross-check, ms per analyze: own replay | StageReport "
               "(traced calls) || StageReport (all calls) | registry window "
               "(all calls)\n";
  for (const Row& row : rows_to_check) {
    double own = 0.0;
    for (const char* span : row.spans) own += per_call_ms(span);
    double reported = 0.0, reported_all = 0.0;
    for (std::size_t i = 0; i < results.size(); ++i) {
      const double s = results[i].report.seconds(row.stage) * 1e3;
      reported_all += s;
      if (i >= untraced_calls) reported += s;
    }
    reported /= static_cast<double>(results.size() - untraced_calls);
    reported_all /= static_cast<double>(results.size());
    const arams::obs::WindowStats now = stage_window(row.stage);
    const arams::obs::WindowStats& then = windows_before[row.stage];
    const long count = now.count - then.count;
    const double registry =
        count > 0 ? (now.sum - then.sum) / static_cast<double>(count) * 1e3
                  : 0.0;
    // Own timing is a separate execution of the same work: flag a gap
    // beyond noise. The registry window records the StageReport's own
    // numbers, so any gap there is a telemetry defect.
    const bool own_off = std::abs(own - reported) > 0.25 * reported;
    const bool registry_off =
        count != static_cast<long>(results.size()) ||
        std::abs(registry - reported_all) > 1e-6 * reported_all;
    std::cout << "  " << row.stage << ": " << own << " | " << reported
              << " || " << reported_all << " | " << registry << " (" << count
              << " calls)"
              << (own_off ? "  FLAG: own timing differs >25% from StageReport"
                          : "")
              << (registry_off ? "  FLAG: registry window disagrees with "
                                 "StageReport"
                               : "")
              << "\n";
  }
  emit_layers(result, layers);
  return result;
}

}  // namespace perfbench
