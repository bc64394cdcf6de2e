#pragma once
// Priority sampling of matrix rows (Duffield, Lund, Thorup 2007), the
// acceleration stage of ARAMS. Each row gets weight wᵢ (squared row norm by
// default) and priority pᵢ = wᵢ/uᵢ with uᵢ ~ U(0,1); the m rows of highest
// priority form the sample. With τ = the (m+1)-th highest priority, the
// estimator ŵᵢ = max(wᵢ, τ) makes subset-sum estimates unbiased; for matrix
// sketching each kept row is rescaled by √(max(1, τ/wᵢ)) so that
// E[B̃ᵀB̃] = AᵀA (property-tested).

#include <queue>
#include <span>
#include <vector>

#include "linalg/matrix.hpp"
#include "rng/rng.hpp"

namespace arams::core {

enum class SamplingWeight {
  kRowNormSquared,  ///< wᵢ = ‖Aᵢ‖² — unbiased covariance (default)
  kRowNorm,         ///< wᵢ = ‖Aᵢ‖ — the form stated in the paper's text
};

struct PrioritySamplerConfig {
  std::size_t capacity = 128;  ///< m — rows retained
  SamplingWeight weight = SamplingWeight::kRowNormSquared;
  bool rescale = true;         ///< apply the unbiasedness rescaling
  std::uint64_t seed = 99;
};

/// Bounded streaming priority sampler over matrix rows.
class PrioritySampler {
 public:
  explicit PrioritySampler(const PrioritySamplerConfig& config);

  /// Offers one row to the sampler.
  void push(std::span<const double> row);

  /// fp32 ingest lane: same weight arithmetic (the norm accumulates in
  /// double either way), same RNG stream, same decisions — the retained
  /// row is widened on entry, so the sample is bitwise identical to
  /// pushing the widened row.
  void push(std::span<const float> row);

  /// Offers every row of a matrix (either precision).
  void push_batch(linalg::MatrixView rows);
  void push_batch(linalg::MatrixViewF rows);

  /// Extracts the sampled (and rescaled) rows, in stream order, and resets
  /// the sampler for the next batch.
  linalg::Matrix take();

  [[nodiscard]] std::size_t capacity() const { return config_.capacity; }
  [[nodiscard]] std::size_t size() const { return heap_.size(); }
  [[nodiscard]] long rows_seen() const { return rows_seen_; }

  /// τ of the most recent take(): the (m+1)-th largest priority, 0 when the
  /// stream did not overflow the capacity.
  [[nodiscard]] double last_threshold() const { return last_threshold_; }

 private:
  /// Shared fp64/fp32 push body; the stored row widens element-wise at
  /// Entry construction.
  template <typename T>
  void push_any(std::span<const T> row);

  struct Entry {
    double priority;
    double weight;
    long order;  ///< arrival index, to restore stream order on take()
    std::vector<double> row;
  };
  struct MinPriority {
    bool operator()(const Entry& a, const Entry& b) const {
      return a.priority > b.priority;  // min-heap on priority
    }
  };

  PrioritySamplerConfig config_;
  Rng rng_;
  std::vector<Entry> heap_;  ///< min-heap of the top-(m+1) priorities
  long rows_seen_ = 0;
  double evicted_priority_ = 0.0;  ///< max priority ever evicted
  double last_threshold_ = 0.0;
  std::size_t dim_ = 0;
};

/// One-shot convenience: priority-samples the rows of `a` down to
/// ⌈fraction·n⌉ rows. fraction in (0, 1]; 1 returns `a` unchanged. fp32
/// input makes the same sampling decisions as its widened copy; only the
/// survivors are widened (fraction ≥ 1 widens the whole view).
linalg::Matrix priority_sample(linalg::MatrixView a, double fraction,
                               const PrioritySamplerConfig& base_config);
linalg::Matrix priority_sample(linalg::MatrixViewF a, double fraction,
                               const PrioritySamplerConfig& base_config);

}  // namespace arams::core
