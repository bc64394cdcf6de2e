#include "core/fd.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/svd.hpp"
#include "obs/metrics.hpp"
#include "util/stopwatch.hpp"

namespace arams::core {

using linalg::Matrix;

FrequentDirections::FrequentDirections(const FdConfig& config)
    : ell_(config.sketch_rows), fast_(config.fast) {
  ARAMS_CHECK(ell_ >= 2, "sketch needs at least 2 rows");
}

void FrequentDirections::ensure_dim(std::size_t d) {
  if (dim_ == 0) {
    ARAMS_CHECK(d > 0, "zero-dimensional rows");
    dim_ = d;
    buffer_ = Matrix(buffer_capacity(), dim_);
    return;
  }
  ARAMS_CHECK(d == dim_, "row dimension changed mid-stream");
}

template <typename T>
void FrequentDirections::append_row(std::span<const T> row) {
  ensure_dim(row.size());
  if (buffer_full()) {
    shrink();
  }
  // Copies (or, for fp32 rows, widens) straight into the destination
  // buffer row — the only conversion the row ever sees.
  std::copy(row.begin(), row.end(), buffer_.row(next_zero_row_).begin());
  ++next_zero_row_;
  ++stats_.rows_processed;
}

void FrequentDirections::append(std::span<const double> row) {
  append_row(row);
}

void FrequentDirections::append(std::span<const float> row) {
  append_row(row);
}

template <typename T>
void FrequentDirections::append_rows(linalg::BasicMatrixView<T> rows) {
  for (std::size_t r = 0; r < rows.rows(); ++r) {
    append_row(rows.row(r));
  }
}

void FrequentDirections::append_batch(linalg::MatrixView rows) {
  append_rows(rows);
}

void FrequentDirections::append_batch(linalg::MatrixViewF rows) {
  append_rows(rows);
}

std::size_t shrink_rows(linalg::MatrixView rows, std::size_t ell,
                        linalg::Workspace& ws, linalg::SigmaVt& svd,
                        Matrix& out) {
  // At most ℓ−1 directions survive the rescale (σ_ℓ² = δ kills row ℓ−1 and
  // everything after it), so cap the materialized right-vector rows at ℓ.
  linalg::sigma_vt_svd(rows, ws, svd, ell);

  // δ = σ_ℓ² (1-based) — the paper's Algorithm 2 line 16. When fewer than ℓ
  // directions exist there is nothing to shrink away (δ = 0) and the
  // rotation only re-orthogonalizes the rows.
  const std::size_t m = svd.sigma.size();
  const double delta =
      (m >= ell) ? svd.sigma[ell - 1] * svd.sigma[ell - 1] : 0.0;

  // Row i of svd.w equals σᵢ·vᵢᵀ; rescale to √(σᵢ²−δ)·vᵢᵀ without ever
  // forming Vᵀ. Rows whose σᵢ² ≤ δ vanish, as do directions below the
  // Gram-trick noise floor (√ε·σ₀) — keeping those would inject garbage
  // directions into the sketch and its basis.
  const double sigma_floor =
      (m > 0 && svd.sigma[0] > 0.0) ? 1e-7 * svd.sigma[0] : 0.0;
  std::size_t kept = 0;
  for (std::size_t i = 0; i < svd.w.rows(); ++i) {
    const double s2 = svd.sigma[i] * svd.sigma[i];
    if (s2 <= delta || svd.sigma[i] <= sigma_floor) break;  // descending
    const double scale = std::sqrt(s2 - delta) / svd.sigma[i];
    const auto wi = svd.w.row(i);
    auto dst = out.row(kept);
    for (std::size_t j = 0; j < wi.size(); ++j) {
      dst[j] = scale * wi[j];
    }
    ++kept;
  }
  return kept;
}

void FrequentDirections::shrink() {
  ARAMS_DCHECK(next_zero_row_ > 0, "shrink of empty buffer");
  Stopwatch timer;
  // Zero-copy view of the occupied buffer prefix, shrunk in place.
  const linalg::MatrixView occupied =
      linalg::MatrixView::rows_of(buffer_, 0, next_zero_row_);
  const std::size_t prev_occupied = next_zero_row_;
  const std::size_t out = shrink_rows(occupied, ell_, ws_, svd_, buffer_);
  last_spectrum_ = svd_.sigma;
  // Zero only [out, prev_occupied): the leading rows were just rewritten
  // and everything at or past prev_occupied is already zero by the buffer
  // invariant (rows >= next_zero_row_ are always zero).
  for (std::size_t r = out; r < prev_occupied; ++r) {
    buffer_.zero_row(r);
  }
  // The sketch is kept dense in its leading rows — no interior zero rows,
  // which Section IV-A3 warns would corrupt later merges.
  next_zero_row_ = out;
  ++stats_.svd_count;
  const double seconds = timer.seconds();
  stats_.shrink_seconds += seconds;
  // Resolved once: references into the global registry are stable, so the
  // per-shrink cost is two relaxed atomic ops next to an SVD.
  static obs::Counter& shrink_count =
      obs::metrics().counter("fd.shrink_count");
  static obs::Histogram& shrink_latency =
      obs::metrics().histogram("fd.shrink_seconds");
  shrink_count.add(1);
  shrink_latency.observe(seconds);
}

void FrequentDirections::compress() {
  if (next_zero_row_ > ell_) {
    shrink();
  }
}

Matrix FrequentDirections::sketch() const {
  if (dim_ == 0) return Matrix();
  return buffer_.slice_rows(0, next_zero_row_);
}

Matrix FrequentDirections::basis(std::size_t k) {
  ARAMS_CHECK(dim_ > 0, "basis of an empty sketch");
  compress();
  if (next_zero_row_ == 0) return Matrix(0, dim_);
  // Post-shrink sketch rows are already orthogonal scaled right vectors,
  // but mid-stream sketches may not be; re-orthogonalize via SVD (on a
  // view of the occupied rows — no buffer copy).
  const linalg::MatrixView b =
      linalg::MatrixView::rows_of(buffer_, 0, next_zero_row_);
  linalg::sigma_vt_svd(b, ws_, svd_, k);  // only the top-k rows are read
  return linalg::right_vectors(svd_.sigma, svd_.w, k);
}

void FrequentDirections::grow_ell(std::size_t extra) {
  if (extra == 0) return;
  ell_ += extra;
  if (dim_ != 0) {
    buffer_.append_zero_rows(buffer_capacity() - buffer_.rows());
  }
}

}  // namespace arams::core
