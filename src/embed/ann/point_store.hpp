#pragma once
// Internal base for the NeighborSearcher backends: owns the indexed point
// copy, the hoisted squared row norms the prenormed engine consumes, the
// stats/telemetry plumbing, and the shared k-selection + validation
// helpers. Backends (exact.cpp / rpforest.cpp) derive from this and only
// implement the candidate-generation strategy.

#include <cstddef>
#include <span>
#include <vector>

#include "embed/ann/searcher.hpp"
#include "embed/distance.hpp"
#include "linalg/matrix.hpp"
#include "linalg/workspace.hpp"

namespace arams::embed::ann {

class PointStoreSearcher : public NeighborSearcher {
 public:
  explicit PointStoreSearcher(AnnConfig config);

  void query(std::span<const double> point, std::size_t k,
             linalg::Workspace& ws, std::vector<std::size_t>& neighbors,
             std::vector<double>& distances,
             const DistanceOptions& opts = {}) override;

  void sq_dists_to(std::span<const double> point, linalg::Workspace& ws,
                   std::span<double> out,
                   const DistanceOptions& opts = {}) const override;

  [[nodiscard]] std::size_t size() const override { return points_.rows(); }
  [[nodiscard]] std::size_t dim() const override { return points_.cols(); }
  [[nodiscard]] const linalg::Matrix& points() const override {
    return points_;
  }
  [[nodiscard]] const AnnStats& stats() const override { return stats_; }

 protected:
  /// Copies `points` into the store and hoists the squared row norms.
  void store_points(const linalg::Matrix& points);

  /// Appends rows (grow-only reshape: existing rows stay in place) and
  /// extends the norm cache.
  void append_rows(linalg::MatrixView rows);

  /// Throws CheckError unless 1 <= k <= size() (external queries) or
  /// 1 <= k < size() (`self_excluded`, the graph path), with the values in
  /// the message.
  void check_k(std::size_t k, bool self_excluded) const;

  /// Records wall time + rows into stats_ and the embed.ann_* metrics.
  void note_build(double seconds);
  void note_insert(double seconds, std::size_t rows);
  void note_query(double seconds, std::size_t rows, long candidates) const;

  AnnConfig config_;
  linalg::Matrix points_;       ///< indexed rows (grow-only)
  std::vector<double> norms_;   ///< hoisted ‖row‖² per indexed point
  mutable AnnStats stats_;      ///< mutable: sq_dists_to is const but counted

  /// select_k scratch shared by the backends (grow-only).
  std::vector<std::pair<double, std::size_t>> best_;

 private:
  // query() scratch (grow-only, keeps the single-point path heap-free).
  KnnGraph query_scratch_;
};

/// Internal backend constructors (searcher.cpp / rpforest.cpp); the public
/// entry point is make_searcher.
std::unique_ptr<NeighborSearcher> make_exact_searcher(const AnnConfig& config);
std::unique_ptr<NeighborSearcher> make_rpforest_searcher(
    const AnnConfig& config);

}  // namespace arams::embed::ann
