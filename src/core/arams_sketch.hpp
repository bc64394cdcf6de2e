#pragma once
// ARAMS — Accelerated Rank-Adaptive Matrix Sketching (Algorithm 3).
//
// Chains the two stages: priority sampling first brings the row count down
// by a large fraction β (e.g. keep 80%) *without* dropping to a tiny latent
// dimension, then (rank-adaptive) Frequent Directions sketches the sampled
// rows. The four Fig. 1 variants are the cross product of the two toggles:
//   use_sampling × rank_adaptive  ("user-specified error" vs "rank").

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/fd.hpp"
#include "core/priority_sampler.hpp"
#include "core/rank_adaptive.hpp"
#include "core/sketch_stats.hpp"
#include "obs/stage_report.hpp"

namespace arams::core {

struct AramsConfig {
  // --- stage 1: priority sampling ---
  bool use_sampling = true;
  double beta = 0.8;  ///< fraction of rows the sampler keeps
  SamplingWeight weight = SamplingWeight::kRowNormSquared;

  // --- stage 2: frequent directions ---
  bool rank_adaptive = true;
  std::size_t ell = 32;       ///< initial (RA) or fixed (non-RA) rank
  int nu = 10;                ///< probes per error estimate (RA)
  double epsilon = 0.05;      ///< error threshold (RA)
  bool relative_error = true;
  std::size_t rank_step = 0;  ///< 0 → ν
  std::size_t max_ell = 4096;
  linalg::ResidualEstimator estimator =
      linalg::ResidualEstimator::kGaussianProbes;

  std::uint64_t seed = 2024;

  /// Human-readable configuration errors, empty when the config is usable.
  /// Called at Arams construction so a bad config fails at the API
  /// boundary instead of deep inside the math.
  [[nodiscard]] std::vector<std::string> validate() const;
};

struct AramsResult {
  linalg::Matrix sketch;       ///< ≤ ℓ_final rows × d
  std::size_t final_ell = 0;   ///< rank after adaptation
  std::size_t rows_sampled = 0;  ///< rows that survived stage 1

  /// Stage timings ("sample", "sketch", "shrink", "fd") and operation
  /// counters ("svd_count", "probe_count", …) for this run. The legacy
  /// `stats()`/`sample_seconds()`/`sketch_seconds()` accessors are gone;
  /// read `report.counter(...)` / `report.seconds(...)` directly, or
  /// convert with core::sketch_stats_from_report.
  obs::StageReport report;
};

/// The ARAMS sketching engine. Batch API (`sketch_matrix`) is Algorithm 3
/// verbatim; the streaming API applies the sampler per pushed batch so a
/// detector stream never has to be materialized.
///
/// Scratch-memory ownership: every Arams owns exactly one FD instance
/// (fixed-ℓ or rank-adaptive), and that FD owns the linalg::Workspace the
/// shrink cycle runs in — so a long-lived Arams performs no steady-state
/// heap allocation in its SVD path, and two Arams instances never share
/// scratch (safe to run on separate threads). See docs/PERFORMANCE.md.
class Arams {
 public:
  explicit Arams(const AramsConfig& config);

  /// Algorithm 3: priority-sample the whole matrix to ⌈βn⌉ rows, then run
  /// (rank-adaptive) FD over the sample. Takes rows of either precision;
  /// see push_batch for how fp32 rows reach the FD.
  AramsResult sketch_matrix(linalg::MatrixView x);
  AramsResult sketch_matrix(linalg::MatrixViewF x);

  /// Streaming: sample within this batch, then feed the survivors to the
  /// persistent FD state. With fp32 rows and sampling on, the fp32
  /// priority-sampler overload consumes the floats directly (weights
  /// accumulate in double, same RNG stream) and emits fp64 survivors; with
  /// sampling off the batch feeds fixed FD's float path, or is widened once
  /// into grow-only scratch for the rank-adaptive FD (whose recent-row
  /// window is fp64). Bitwise identical to widening the batch up front.
  void push_batch(linalg::MatrixView batch);
  void push_batch(linalg::MatrixViewF batch);

  /// Current sketch (compressed to ≤ ℓ rows).
  linalg::Matrix sketch();

  /// Orthonormal top-k principal directions of the current sketch (k×d).
  /// Precondition: dim() > 0 — throws CheckError on an empty sketch (the
  /// uniform Sketcher empty-state contract); callers gate on dim() first.
  linalg::Matrix basis(std::size_t k);

  [[nodiscard]] std::size_t current_ell() const;
  /// Column count of the sketch; 0 until the first row actually lands in
  /// the FD buffer (priority sampling can drop an entire batch, so a
  /// push_batch call alone is no guarantee). basis() on an empty sketch
  /// throws — check this first.
  [[nodiscard]] std::size_t dim() const;
  [[nodiscard]] SketchStats stats() const;
  [[nodiscard]] const AramsConfig& config() const { return config_; }

 private:
  FrequentDirections& fd();

  /// The bodies behind both precisions of sketch_matrix / push_batch.
  template <typename T>
  AramsResult sketch_rows(linalg::BasicMatrixView<T> x);
  template <typename T>
  void push_rows(linalg::BasicMatrixView<T> batch);
  /// Stage 1: the priority sample of `rows` drawn with `seed`, or nullopt
  /// when sampling is off and the rows feed the FD as they are.
  template <typename T>
  std::optional<linalg::Matrix> sample(linalg::BasicMatrixView<T> rows,
                                       std::uint64_t seed) const;
  /// Stage 2: appends rows to the FD state.
  template <typename T>
  void feed_fd(linalg::BasicMatrixView<T> rows);

  AramsConfig config_;
  std::unique_ptr<RankAdaptiveFd> ra_fd_;        // set when rank_adaptive
  std::unique_ptr<FrequentDirections> fixed_fd_; // set otherwise
  double sample_seconds_ = 0.0;
  std::size_t rows_sampled_total_ = 0;
  linalg::Matrix f32_widen_;  ///< grow-only fp32-lane widen scratch
};

}  // namespace arams::core
