#pragma once
// Competitor matrix-sketching baselines.
//
// The paper positions FD against the sampling and random-projection
// families benchmarked by Desai, Ghashami & Phillips (2016) ("Improved
// practical matrix sketching with guarantees", cited as [5]): FD has the
// best error but "lags behind in run-time performance", which is the whole
// motivation for ARAMS's priority-sampling acceleration. These baselines
// make that comparison reproducible:
//  * GaussianProjectionSketch — B += S·A per batch (dense JL projection)
//  * CountSketch             — B[h(i)] += s(i)·aᵢ (sparse embedding)
//  * NormSamplingSketch      — iid length-squared row sampling (w/ repl.)
//  * TruncatedSvdSketch      — iSVD: stack batch, SVD, truncate to ℓ
//                              (no FD shrinkage — the classic heuristic)
//
// All implement the first-class core::Sketcher interface (sketcher.hpp), so
// the streaming monitor, the stage runner, the CLI and the
// ablation_baselines bench sweep them interchangeably with ARAMS/FD. The
// ingest primitive is the batch (`push_batch` — one GEMM or scatter pass
// per batch); `append` stays overridden where a genuine row primitive
// exists so batch-vs-row parity is testable.

#include <span>
#include <string>
#include <vector>

#include "core/sketcher.hpp"
#include "linalg/matrix.hpp"
#include "linalg/svd.hpp"
#include "linalg/workspace.hpp"
#include "rng/rng.hpp"

namespace arams::core {

/// Dense Gaussian (Johnson–Lindenstrauss) projection: B = S·A with S an
/// ℓ×n iid N(0, 1/ℓ) matrix. push_batch draws the b×ℓ coefficient block
/// and accumulates B += Sᵀ_batch·A_batch with one packed GEMM; append is
/// the per-row reference path (same RNG draw order, so the two agree up to
/// floating-point summation order).
class GaussianProjectionSketch : public Sketcher {
 public:
  GaussianProjectionSketch(std::size_t ell, std::uint64_t seed);
  void push_batch(const linalg::Matrix& batch) override;
  /// fp32 lane: same coefficient draw order, mixed-precision GEMM (float
  /// panels widened at pack time) — bitwise identical to widening first.
  void push_batch(linalg::MatrixViewF batch) override;
  void append(std::span<const double> row) override;
  linalg::Matrix sketch() override { return sketch_; }
  [[nodiscard]] std::size_t current_ell() const override { return ell_; }
  [[nodiscard]] std::size_t dim() const override { return sketch_.cols(); }
  [[nodiscard]] SketchStats stats() const override { return stats_; }
  [[nodiscard]] std::string name() const override { return "gaussian"; }

 private:
  void ensure_dim(std::size_t d);
  /// The push_batch body behind both precisions.
  template <typename T>
  void push_rows(linalg::BasicMatrixView<T> batch);

  std::size_t ell_;
  Rng rng_;
  linalg::Matrix sketch_;
  std::vector<double> coeffs_;
  SketchStats stats_;
  // Grow-only batch scratch — steady-state push_batch is allocation-free.
  linalg::Matrix coeff_block_;  ///< b×ℓ Gaussian coefficients
  linalg::Matrix update_;       ///< Sᵀ_batch·A_batch (ℓ×d)
};

/// CountSketch / sparse subspace embedding: each input row lands in one
/// bucket with a random sign. push_batch is a single scatter pass (the hash
/// stream is identical to the row loop, so batch and row ingest are
/// bitwise-equal).
class CountSketch : public Sketcher {
 public:
  CountSketch(std::size_t ell, std::uint64_t seed);
  void push_batch(const linalg::Matrix& batch) override;
  /// fp32 lane: identical hash stream, float-axpy scatter (terms widen
  /// before the add) — bitwise identical to widening first.
  void push_batch(linalg::MatrixViewF batch) override;
  void append(std::span<const double> row) override;
  linalg::Matrix sketch() override { return sketch_; }
  [[nodiscard]] std::size_t current_ell() const override { return ell_; }
  [[nodiscard]] std::size_t dim() const override { return sketch_.cols(); }
  [[nodiscard]] SketchStats stats() const override { return stats_; }
  [[nodiscard]] std::string name() const override { return "countsketch"; }

 private:
  void ensure_dim(std::size_t d);
  /// The push_batch body and its per-row scatter, behind both precisions.
  template <typename T>
  void push_rows(linalg::BasicMatrixView<T> batch);
  template <typename T>
  void scatter(std::span<const T> row);

  std::size_t ell_;
  Rng rng_;
  linalg::Matrix sketch_;
  SketchStats stats_;
};

/// Length-squared (norm²) iid row sampling with replacement, via ℓ
/// independent A-Res-style reservoir slots. Rows rescaled by
/// 1/√(ℓ·pᵢ) so E[BᵀB] = AᵀA.
class NormSamplingSketch : public Sketcher {
 public:
  NormSamplingSketch(std::size_t ell, std::uint64_t seed);
  void push_batch(const linalg::Matrix& batch) override;
  void append(std::span<const double> row) override;
  linalg::Matrix sketch() override;
  [[nodiscard]] std::size_t current_ell() const override { return ell_; }
  [[nodiscard]] std::size_t dim() const override { return dim_; }
  [[nodiscard]] SketchStats stats() const override { return stats_; }
  [[nodiscard]] std::string name() const override { return "normsample"; }

 private:
  struct Slot {
    double key = -1.0;  ///< max of u^(1/w) seen; winner kept
    std::vector<double> row;
    double weight = 0.0;
  };
  std::size_t ell_;
  Rng rng_;
  std::vector<Slot> slots_;
  double total_weight_ = 0.0;
  std::size_t dim_ = 0;
  SketchStats stats_;
};

/// Incremental truncated SVD ("iSVD"): buffer 2ℓ rows, on overflow keep the
/// top-ℓ of Σ·Vᵀ with *no* shrinkage. Fast and often accurate, but with no
/// worst-case guarantee — FD pays a deliberate deflation of every retained
/// direction to buy its bound, iSVD does not (see tests).
class TruncatedSvdSketch : public Sketcher {
 public:
  explicit TruncatedSvdSketch(std::size_t ell);
  void push_batch(const linalg::Matrix& batch) override;
  void append(std::span<const double> row) override;
  linalg::Matrix sketch() override;
  [[nodiscard]] std::size_t current_ell() const override { return ell_; }
  [[nodiscard]] std::size_t dim() const override { return dim_; }
  [[nodiscard]] SketchStats stats() const override { return stats_; }
  [[nodiscard]] std::string name() const override { return "isvd"; }

 private:
  void truncate();

  std::size_t ell_;
  std::size_t dim_ = 0;
  linalg::Matrix buffer_;
  std::size_t next_row_ = 0;
  SketchStats stats_;
  // Reused across truncations — steady-state truncate() is allocation-free.
  linalg::Workspace ws_;
  linalg::SigmaVt svd_;
};

}  // namespace arams::core
