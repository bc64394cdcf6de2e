#pragma once
// Online sketch-quality meter.
//
// Computing the true reconstruction error "up to the most recent time
// would require storing all the data" (§IV-A2) — but a *uniform reservoir
// sample* of the stream gives an unbiased estimate of the average
// reconstruction error over everything seen, at fixed memory. This is the
// operator-facing "how good is my sketch right now" gauge the
// rank-adaptation heuristic (which only sees the most recent batch)
// deliberately does not provide.

#include <cstdint>
#include <span>

#include "linalg/matrix.hpp"
#include "rng/rng.hpp"

namespace arams::core {

struct ErrorTrackerConfig {
  std::size_t reservoir_size = 256;  ///< rows retained (uniform sample)
  std::uint64_t seed = 77;
};

/// Uniform reservoir (Vitter's Algorithm R) over the stream's rows, plus
/// the residual evaluation against a sketch basis.
class SketchErrorTracker {
 public:
  explicit SketchErrorTracker(const ErrorTrackerConfig& config);

  /// Offers one data row (every row of the stream, pre-sketch).
  void observe(std::span<const double> row);

  /// Offers every row of a batch.
  void observe_batch(const linalg::Matrix& rows);

  /// Relative reconstruction error of the reservoir against the given
  /// orthonormal row basis (e.g. FrequentDirections::basis(k)):
  /// ‖R − R·VᵀV‖²_F / ‖R‖²_F. Unbiased for the stream average because the
  /// reservoir is a uniform sample. Throws CheckError before any rows.
  [[nodiscard]] double relative_error(const linalg::Matrix& basis) const;

  [[nodiscard]] long rows_seen() const { return rows_seen_; }
  [[nodiscard]] std::size_t reservoir_count() const;

  /// The current reservoir as a matrix (a uniform sample of the stream —
  /// also useful as a representative row set for operator inspection).
  [[nodiscard]] linalg::Matrix reservoir_rows() const;

 private:
  ErrorTrackerConfig config_;
  Rng rng_;
  linalg::Matrix reservoir_;  ///< the sampled rows, one per matrix row
  long rows_seen_ = 0;
  std::size_t dim_ = 0;
};

}  // namespace arams::core
