#pragma once
// embed::NeighborSearcher — the one seam every nearest-neighbour consumer
// sits behind (UMAP fuzzy graphs and out-of-sample transforms, OPTICS range
// queries, FastABOD, k-means++ seeding, the streaming monitor's snapshot
// index).
//
// The motivation mirrors the core::Sketcher seam: exact kNN — even GEMM-
// blocked — is O(n²) and is the scaling cliff for million-point runs, and
// umappp-style pipelines solve it with a pluggable searcher (knncolle). A
// backend is resolved by name at run time through `make_searcher`, so the
// pipeline, the CLI (`--knn-backend=`) and the benches can swap the exact
// engine for the randomized-projection forest without recompiling.
//
// Registered backends (canonical factory names):
//   exact     GEMM-blocked brute force (the PR-5 distance engine); the
//             ground-truth reference and the right choice for the few-
//             thousand-point embeddings the monitor draws.
//   rpforest  randomized-projection-tree forest: blocked tree construction
//             through the packed GEMM core, leaf-level candidate scoring
//             through embed::pairwise_gram, multi-tree candidate union and
//             NN-descent refinement seeded from the forest candidates.
//   auto      size-based dispatch — exact at or below
//             AnnConfig::exact_threshold indexed points, rpforest above.
//
// ## Contract (uniform across backends, enforced by tests/test_ann.cpp)
//
//  * build() (re)indexes a point set; insert() appends rows to a built
//    index without a full rebuild (the streaming monitor keeps its snapshot
//    index warm this way). Both count into stats().
//  * query()/query_batch() answer for *external* points (no self-
//    exclusion); query_graph() answers for the indexed points themselves
//    (self excluded) — the kNN-graph construction path.
//  * Fixed config.seed ⇒ bitwise-identical results regardless of thread
//    count or DistanceOptions::allow_parallel.
//  * Steady-state query()/query_batch() at a fixed shape perform no heap
//    allocations (grow-only members + the wslot::kAnn* arena slots).
//  * k is validated, not silently clamped: query_graph needs
//    1 <= k < size(), query/query_batch need 1 <= k <= size(), with the
//    offending values in the error message.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "embed/knn.hpp"
#include "linalg/matrix.hpp"
#include "linalg/workspace.hpp"
#include "obs/stage_report.hpp"

namespace arams::embed {

/// Configuration for any factory-constructed searcher. `backend` selects
/// the implementation; the forest knobs apply to "rpforest" (and to "auto"
/// once it dispatches there).
struct AnnConfig {
  std::string backend = "auto";    ///< exact | rpforest | auto
  /// "auto" dispatch policy: exact at or below this many indexed points,
  /// rpforest above.
  std::size_t exact_threshold = 4096;
  std::size_t num_trees = 8;       ///< rpforest: trees in the forest
  std::size_t leaf_size = 32;      ///< rpforest: max points per leaf
  int refine_iters = 3;            ///< rpforest: NN-descent passes on the seed
  /// rpforest single-point queries: candidate budget as a multiple of k
  /// (traversal stops once ~candidate_factor·k leaf members are collected).
  double candidate_factor = 16.0;
  std::uint64_t seed = 2024;       ///< tree directions + refinement streams

  /// Human-readable configuration errors, empty when usable. Called by
  /// make_searcher so a bad config fails at the API boundary.
  [[nodiscard]] std::vector<std::string> validate() const;
};

/// Lifetime counters for one searcher instance. `builds` vs `inserts` is
/// the observable the monitor tests pin: an index kept warm across
/// incremental snapshots shows builds == 1 while inserts grows.
struct AnnStats {
  long builds = 0;             ///< full (re)index operations
  long inserted_rows = 0;      ///< rows appended via insert()
  long query_rows = 0;         ///< query points answered (all query paths)
  long candidates_scored = 0;  ///< candidate distances evaluated
  double build_seconds = 0.0;  ///< wall time in build() + insert()
  double query_seconds = 0.0;  ///< wall time in the query paths
};

/// Abstract nearest-neighbour index over a stored point set.
class NeighborSearcher {
 public:
  virtual ~NeighborSearcher() = default;

  /// (Re)indexes `points` (copied into the searcher). Resets size() and
  /// dim(); previous contents are discarded.
  virtual void build(const linalg::Matrix& points, linalg::Workspace& ws,
                     const DistanceOptions& opts = {}) = 0;

  /// Appends rows to a built index without a full rebuild. The new points
  /// take indices size()..size()+rows.rows()-1.
  virtual void insert(linalg::MatrixView rows, linalg::Workspace& ws,
                      const DistanceOptions& opts = {}) = 0;

  /// k nearest indexed points to one external query point, ascending
  /// Euclidean distance. Requires 1 <= k <= size().
  virtual void query(std::span<const double> point, std::size_t k,
                     linalg::Workspace& ws,
                     std::vector<std::size_t>& neighbors,
                     std::vector<double>& distances,
                     const DistanceOptions& opts = {}) = 0;

  /// Batch form of query(): one graph row per query row (queries are
  /// external — no self-exclusion). Requires 1 <= k <= size().
  virtual void query_batch(linalg::MatrixView queries, std::size_t k,
                           linalg::Workspace& ws, KnnGraph& out,
                           const DistanceOptions& opts = {}) = 0;

  /// kNN graph over the indexed points themselves (self excluded).
  /// Requires 1 <= k < size().
  virtual void query_graph(std::size_t k, linalg::Workspace& ws,
                           KnnGraph& out,
                           const DistanceOptions& opts = {}) = 0;

  /// Exact squared distances from one external point to every indexed
  /// point (`out.size() == size()`), through the prenormed GEMM engine —
  /// the range-query primitive OPTICS and k-means++ seeding consume.
  virtual void sq_dists_to(std::span<const double> point,
                           linalg::Workspace& ws, std::span<double> out,
                           const DistanceOptions& opts = {}) const = 0;

  [[nodiscard]] virtual std::size_t size() const = 0;  ///< indexed points
  [[nodiscard]] virtual std::size_t dim() const = 0;   ///< point dimension

  /// The indexed point set (row i ↔ index i).
  [[nodiscard]] virtual const linalg::Matrix& points() const = 0;

  /// Canonical factory name; make_searcher(name(), …) round-trips.
  [[nodiscard]] virtual std::string name() const = 0;

  [[nodiscard]] virtual const AnnStats& stats() const = 0;

  /// Folds stats() into a StageReport — the structured form the snapshot
  /// and pipeline results carry.
  void report(obs::StageReport& out) const;
};

/// True when `name` is a canonical searcher name.
[[nodiscard]] bool searcher_registered(const std::string& name);

/// Canonical searcher names, factory registration order.
[[nodiscard]] std::vector<std::string> registered_searchers();

/// One-line description of a canonical searcher (for --help / docs lint).
/// Throws CheckError on unknown names.
[[nodiscard]] std::string searcher_description(const std::string& name);

/// Builds the searcher selected by `config.backend`. Validates the config
/// and throws CheckError on errors or unknown names.
std::unique_ptr<NeighborSearcher> make_searcher(const AnnConfig& config);

/// Convenience: default config with the given name/seed.
std::unique_ptr<NeighborSearcher> make_searcher(const std::string& name,
                                                std::uint64_t seed);

}  // namespace arams::embed
