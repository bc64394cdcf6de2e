#include "core/error_tracker.hpp"

#include "linalg/blas.hpp"
#include "linalg/norms.hpp"
#include "util/check.hpp"

namespace arams::core {

SketchErrorTracker::SketchErrorTracker(const ErrorTrackerConfig& config)
    : config_(config), rng_(config.seed) {
  ARAMS_CHECK(config.reservoir_size >= 1, "reservoir must hold >= 1 row");
}

void SketchErrorTracker::observe(std::span<const double> row) {
  if (dim_ == 0) {
    dim_ = row.size();
    ARAMS_CHECK(dim_ > 0, "zero-dimensional rows");
    // Reserve the full reservoir once: reshapes below capacity never
    // reallocate, so filling it row by row copies nothing.
    reservoir_.reshape(config_.reservoir_size, dim_);
    reservoir_.reshape(0, dim_);
  }
  ARAMS_CHECK(row.size() == dim_, "row dimension changed mid-stream");
  ++rows_seen_;
  const std::size_t count = reservoir_.rows();
  if (count < config_.reservoir_size) {
    reservoir_.reshape(count + 1, dim_);
    reservoir_.set_row(count, row);
    return;
  }
  // Algorithm R: replace a random slot with probability size/seen.
  const auto slot = rng_.uniform_index(
      static_cast<std::uint64_t>(rows_seen_));
  if (slot < config_.reservoir_size) {
    reservoir_.set_row(slot, row);
  }
}

void SketchErrorTracker::observe_batch(const linalg::Matrix& rows) {
  for (std::size_t r = 0; r < rows.rows(); ++r) {
    observe(rows.row(r));
  }
}

std::size_t SketchErrorTracker::reservoir_count() const {
  return reservoir_.rows();
}

linalg::Matrix SketchErrorTracker::reservoir_rows() const {
  ARAMS_CHECK(reservoir_.rows() > 0, "no rows observed yet");
  return reservoir_;
}

double SketchErrorTracker::relative_error(
    const linalg::Matrix& basis) const {
  ARAMS_CHECK(reservoir_.rows() > 0, "no rows observed yet");
  ARAMS_CHECK(basis.cols() == dim_, "basis dimension mismatch");
  const double total = linalg::frobenius_norm_squared(reservoir_);
  if (total <= 0.0) return 0.0;
  return linalg::projection_residual_exact(reservoir_, basis, total) / total;
}

}  // namespace arams::core
