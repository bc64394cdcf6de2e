#include "core/priority_sampler.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/blas.hpp"
#include "util/check.hpp"

namespace arams::core {

using linalg::Matrix;

PrioritySampler::PrioritySampler(const PrioritySamplerConfig& config)
    : config_(config), rng_(config.seed) {
  ARAMS_CHECK(config.capacity >= 1, "sampler capacity must be >= 1");
  heap_.reserve(config.capacity + 2);
}

template <typename T>
void PrioritySampler::push_any(std::span<const T> row) {
  if (dim_ == 0) {
    dim_ = row.size();
    ARAMS_CHECK(dim_ > 0, "zero-dimensional rows");
  } else {
    ARAMS_CHECK(row.size() == dim_, "row dimension changed mid-stream");
  }

  // norm2_squared accumulates in double for both element types. The fp32
  // overload reduces in a faster (multi-accumulator) order, so its weight
  // may differ from the widened stream's in the last ulp — far below
  // anything that flips a keep/evict decision against the continuous
  // priority draw, but enough that rescaled rows are only
  // equal-to-rounding (not bitwise) across lanes.
  double w = linalg::norm2_squared(row);
  if (config_.weight == SamplingWeight::kRowNorm) {
    w = std::sqrt(w);
  }
  ++rows_seen_;
  if (w <= 0.0) {
    return;  // zero rows carry no covariance mass; never sampled
  }
  double u = 0.0;
  do {
    u = rng_.uniform();
  } while (u <= 0.0);
  const double priority = w / u;

  // Keep the top (capacity + 1) priorities: the extra element is τ.
  if (heap_.size() < config_.capacity + 1) {
    heap_.push_back(Entry{priority, w, rows_seen_ - 1,
                          std::vector<double>(row.begin(), row.end())});
    std::push_heap(heap_.begin(), heap_.end(), MinPriority{});
    return;
  }
  if (priority <= heap_.front().priority) {
    evicted_priority_ = std::max(evicted_priority_, priority);
    return;
  }
  std::pop_heap(heap_.begin(), heap_.end(), MinPriority{});
  evicted_priority_ = std::max(evicted_priority_, heap_.back().priority);
  heap_.back() =
      Entry{priority, w, rows_seen_ - 1,
            std::vector<double>(row.begin(), row.end())};
  std::push_heap(heap_.begin(), heap_.end(), MinPriority{});
}

void PrioritySampler::push(std::span<const double> row) { push_any(row); }

void PrioritySampler::push(std::span<const float> row) { push_any(row); }

void PrioritySampler::push_batch(linalg::MatrixView rows) {
  for (std::size_t r = 0; r < rows.rows(); ++r) {
    push(rows.row(r));
  }
}

void PrioritySampler::push_batch(linalg::MatrixViewF rows) {
  for (std::size_t r = 0; r < rows.rows(); ++r) {
    push(rows.row(r));
  }
}

Matrix PrioritySampler::take() {
  ARAMS_CHECK(dim_ > 0, "take() before any rows were pushed");

  double tau = 0.0;
  std::vector<Entry> kept;
  if (heap_.size() > config_.capacity) {
    // The smallest of the m+1 retained priorities is exactly τ; it is
    // dropped from the sample.
    std::pop_heap(heap_.begin(), heap_.end(), MinPriority{});
    tau = heap_.back().priority;
    heap_.pop_back();
  } else {
    // Stream never overflowed: every row is kept exactly, no rescaling.
    tau = 0.0;
  }
  kept = std::move(heap_);
  heap_.clear();
  last_threshold_ = tau;

  std::sort(kept.begin(), kept.end(),
            [](const Entry& a, const Entry& b) { return a.order < b.order; });

  Matrix out(kept.size(), dim_);
  for (std::size_t i = 0; i < kept.size(); ++i) {
    auto dst = out.row(i);
    std::copy(kept[i].row.begin(), kept[i].row.end(), dst.begin());
    if (config_.rescale && tau > 0.0 && kept[i].weight < tau) {
      // Inclusion probability qᵢ = wᵢ/τ < 1; dividing the squared mass by
      // qᵢ keeps E[B̃ᵀB̃] = AᵀA.
      linalg::scale(dst, std::sqrt(tau / kept[i].weight));
    }
  }

  rows_seen_ = 0;
  evicted_priority_ = 0.0;
  dim_ = 0;
  return out;
}

namespace {

template <typename T>
Matrix sample_rows(linalg::BasicMatrixView<T> a, double fraction,
                   const PrioritySamplerConfig& base_config) {
  ARAMS_CHECK(fraction > 0.0 && fraction <= 1.0,
              "sampling fraction must be in (0, 1]");
  if (fraction >= 1.0) {
    Matrix all(a.rows(), a.cols());
    std::copy(a.data(), a.data() + a.size(), all.data());
    return all;
  }
  PrioritySamplerConfig config = base_config;
  config.capacity = static_cast<std::size_t>(
      std::ceil(fraction * static_cast<double>(a.rows())));
  config.capacity = std::max<std::size_t>(config.capacity, 1);
  PrioritySampler sampler(config);
  sampler.push_batch(a);
  return sampler.take();
}

}  // namespace

Matrix priority_sample(linalg::MatrixView a, double fraction,
                       const PrioritySamplerConfig& base_config) {
  return sample_rows(a, fraction, base_config);
}

Matrix priority_sample(linalg::MatrixViewF a, double fraction,
                       const PrioritySamplerConfig& base_config) {
  return sample_rows(a, fraction, base_config);
}

}  // namespace arams::core
