#include "core/arams_sketch.hpp"

#include <sstream>
#include <type_traits>

#include "obs/trace.hpp"
#include "util/stopwatch.hpp"

namespace arams::core {

using linalg::Matrix;

std::vector<std::string> AramsConfig::validate() const {
  std::vector<std::string> errors;
  const auto fmt = [](const auto& value) {
    std::ostringstream out;
    out << value;
    return out.str();
  };
  if (!(beta > 0.0 && beta <= 1.0)) {
    errors.push_back("beta must be in (0, 1], got " + fmt(beta));
  }
  if (ell < 2) {
    errors.push_back("ell must be >= 2, got " + fmt(ell));
  }
  if (max_ell != 0 && ell > max_ell) {
    errors.push_back("ell (" + fmt(ell) + ") exceeds max_ell (" +
                     fmt(max_ell) + ")");
  }
  if (rank_adaptive) {
    if (nu < 1) {
      errors.push_back("nu (probes per estimate) must be >= 1, got " +
                       fmt(nu));
    }
    if (epsilon < 0.0) {
      errors.push_back("epsilon must be >= 0, got " + fmt(epsilon));
    }
  }
  return errors;
}

namespace {

std::string join_errors(const std::vector<std::string>& errors) {
  std::string out;
  for (const auto& e : errors) {
    if (!out.empty()) out += "; ";
    out += e;
  }
  return out;
}

}  // namespace

Arams::Arams(const AramsConfig& config) : config_(config) {
  const std::vector<std::string> errors = config.validate();
  ARAMS_CHECK(errors.empty(), "invalid AramsConfig: " + join_errors(errors));
  if (config_.rank_adaptive) {
    RankAdaptiveConfig ra;
    ra.initial_ell = config_.ell;
    ra.nu = config_.nu;
    ra.rank_step = config_.rank_step;
    ra.epsilon = config_.epsilon;
    ra.relative_error = config_.relative_error;
    ra.max_ell = config_.max_ell;
    ra.estimator = config_.estimator;
    ra.seed = config_.seed;
    ra_fd_ = std::make_unique<RankAdaptiveFd>(ra);
  } else {
    fixed_fd_ = std::make_unique<FrequentDirections>(
        FdConfig{config_.ell, /*fast=*/true});
  }
}

FrequentDirections& Arams::fd() {
  return ra_fd_ ? static_cast<FrequentDirections&>(*ra_fd_) : *fixed_fd_;
}

template <typename T>
std::optional<Matrix> Arams::sample(linalg::BasicMatrixView<T> rows,
                                    std::uint64_t seed) const {
  if (!config_.use_sampling || config_.beta >= 1.0) return std::nullopt;
  PrioritySamplerConfig ps;
  ps.weight = config_.weight;
  ps.seed = seed;
  return priority_sample(rows, config_.beta, ps);
}

template <typename T>
void Arams::feed_fd(linalg::BasicMatrixView<T> rows) {
  if (!ra_fd_) {
    fixed_fd_->append_batch(rows);
  } else if constexpr (std::is_same_v<T, float>) {
    // RankAdaptiveFd's recent-row window is fp64; widen once into
    // grow-only scratch and reuse its fp64 entry point.
    linalg::widen(rows, f32_widen_);
    ra_fd_->append_batch(f32_widen_);
  } else {
    ra_fd_->append_batch(rows);
  }
}

template <typename T>
AramsResult Arams::sketch_rows(linalg::BasicMatrixView<T> x) {
  const obs::ScopedSpan span("arams.sketch_matrix");
  AramsResult result;
  Stopwatch timer;

  std::optional<Matrix> sampled;
  {
    const obs::ScopedSpan sample_span("arams.sample");
    sampled = sample(x, config_.seed ^ 0x5a5a5a5aull);
  }
  result.report.set_seconds("sample", timer.lap());
  result.rows_sampled = sampled ? sampled->rows() : x.rows();
  rows_sampled_total_ += result.rows_sampled;

  {
    const obs::ScopedSpan sketch_span("arams.sketch");
    if (ra_fd_) {
      ra_fd_->set_rows_remaining(static_cast<long>(result.rows_sampled));
    }
    if (sampled) {
      feed_fd(linalg::MatrixView(*sampled));
    } else {
      feed_fd(x);
    }
    fd().compress();
  }
  result.report.set_seconds("sketch", timer.lap());
  result.sketch = fd().sketch();
  result.final_ell = fd().ell();
  append_to_report(fd().stats(), result.report);
  return result;
}

template <typename T>
void Arams::push_rows(linalg::BasicMatrixView<T> batch) {
  if (batch.rows() == 0) return;
  Stopwatch timer;
  const std::optional<Matrix> sampled =
      sample(batch, config_.seed ^ (0x9e3779b9ull + rows_sampled_total_));
  sample_seconds_ += timer.lap();
  if (sampled) {
    rows_sampled_total_ += sampled->rows();
    feed_fd(linalg::MatrixView(*sampled));
  } else {
    rows_sampled_total_ += batch.rows();
    feed_fd(batch);
  }
}

AramsResult Arams::sketch_matrix(linalg::MatrixView x) {
  return sketch_rows(x);
}

AramsResult Arams::sketch_matrix(linalg::MatrixViewF x) {
  return sketch_rows(x);
}

void Arams::push_batch(linalg::MatrixView batch) { push_rows(batch); }

void Arams::push_batch(linalg::MatrixViewF batch) { push_rows(batch); }

Matrix Arams::sketch() {
  fd().compress();
  return fd().sketch();
}

Matrix Arams::basis(std::size_t k) {
  // Uniform Sketcher empty-state contract: checked precondition at the API
  // boundary rather than a CheckError from deep inside FD.
  ARAMS_CHECK(dim() > 0,
              "basis of an empty sketch: no rows ingested yet "
              "(check dim() != 0 before calling basis)");
  return fd().basis(k);
}

std::size_t Arams::current_ell() const {
  return ra_fd_ ? ra_fd_->ell() : fixed_fd_->ell();
}

std::size_t Arams::dim() const {
  return ra_fd_ ? ra_fd_->dim() : fixed_fd_->dim();
}

SketchStats Arams::stats() const {
  return ra_fd_ ? ra_fd_->stats() : fixed_fd_->stats();
}

}  // namespace arams::core
