#include "core/rank_adaptive.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/blas.hpp"
#include "linalg/norms.hpp"
#include "obs/metrics.hpp"
#include "util/stopwatch.hpp"

namespace arams::core {

using linalg::Matrix;

RankAdaptiveFd::RankAdaptiveFd(const RankAdaptiveConfig& config)
    : FrequentDirections(FdConfig{config.initial_ell, /*fast=*/true}),
      config_(config),
      rng_(config.seed) {
  ARAMS_CHECK(config.nu > 0, "need at least one probe");
  ARAMS_CHECK(config.epsilon >= 0.0, "negative error threshold");
  if (config_.rank_step == 0) {
    config_.rank_step = static_cast<std::size_t>(config_.nu);
  }
}

bool RankAdaptiveFd::can_rank_adapt() const {
  if (config_.max_ell != 0 && ell_ >= config_.max_ell) return false;
  if (rows_remaining_ <= 0) return true;  // open-ended stream
  // Algorithm 2 line 8: enough rows must remain to refill the grown buffer,
  // otherwise the final sketch would carry interior zero rows into merges.
  return rows_remaining_ >
         static_cast<long>(ell_ + static_cast<std::size_t>(config_.nu));
}

void RankAdaptiveFd::append(std::span<const double> row) {
  Stopwatch timer;
  if (dim_ == 0) {
    // First row fixes d; size the recent-rows window to ℓ.
    window_.assign(ell_, {});
  }

  if (buffer_full()) {
    const bool adapt_ok = can_rank_adapt();
    if (increase_ell_ && adapt_ok) {
      std::size_t step = config_.rank_step;
      if (config_.max_ell != 0) {
        step = std::min(step, config_.max_ell - ell_);
      }
      grow_ell(step);
      increase_ell_ = false;
      ++stats_.rank_increases;
      static obs::Counter& rank_increases =
          obs::metrics().counter("fd.rank_increases");
      rank_increases.add(1);
      // Window tracks ℓ so the estimate always covers one buffer period.
      window_.resize(ell_);
    } else {
      shrink();
      if (adapt_ok) {
        update_adaptation_decision();
      }
    }
  }

  FrequentDirections::append(row);
  if (rows_remaining_ > 0) {
    --rows_remaining_;
  }

  // Record the row in the ring window.
  auto& slot = window_[window_next_];
  slot.assign(row.begin(), row.end());
  window_next_ = (window_next_ + 1) % window_.size();
  window_count_ = std::min(window_count_ + 1, window_.size());
  stats_.total_seconds += timer.seconds();
}

void RankAdaptiveFd::append_batch(linalg::MatrixView rows) {
  for (std::size_t r = 0; r < rows.rows(); ++r) {
    append(rows.row(r));
  }
}

Matrix RankAdaptiveFd::process(const Matrix& x) {
  set_rows_remaining(static_cast<long>(x.rows()));
  append_batch(x);
  compress();
  return sketch();
}

Matrix RankAdaptiveFd::post_shrink_basis() const {
  const std::size_t rows = next_zero_row_;
  Matrix basis(rows, dim_);
  for (std::size_t i = 0; i < rows; ++i) {
    const auto src = buffer_.row(i);
    const double nrm = linalg::norm2(src);
    ARAMS_DCHECK(nrm > 0.0, "zero row survived shrink");
    auto dst = basis.row(i);
    for (std::size_t j = 0; j < dim_; ++j) {
      dst[j] = src[j] / nrm;
    }
  }
  return basis;
}

void RankAdaptiveFd::update_adaptation_decision() {
  if (window_count_ == 0 || next_zero_row_ == 0) return;

  // Assemble the recent-rows batch X from the filled ring slots (slots
  // added by a recent rank growth may still be empty).
  std::vector<const std::vector<double>*> filled;
  filled.reserve(window_.size());
  for (const auto& slot : window_) {
    if (!slot.empty()) filled.push_back(&slot);
  }
  if (filled.empty()) return;
  Matrix x(filled.size(), dim_);
  for (std::size_t i = 0; i < filled.size(); ++i) {
    x.set_row(i, *filled[i]);
  }

  const Matrix v = post_shrink_basis();
  double estimate =
      linalg::estimate_residual(x, v, config_.estimator, config_.nu, rng_);
  stats_.probe_count += config_.nu;
  static obs::Counter& probe_count =
      obs::metrics().counter("fd.probe_count");
  probe_count.add(config_.nu);
  if (config_.relative_error) {
    const double denom = linalg::frobenius_norm_squared(x);
    if (denom <= 0.0) return;  // an all-zero batch carries no signal
    estimate /= denom;
  }
  last_estimate_ = estimate;
  if (estimate > config_.epsilon) {
    increase_ell_ = true;
  }
}

}  // namespace arams::core
