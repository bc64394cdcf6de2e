#pragma once
// k-nearest-neighbour graphs over latent points.
//
// Two constructions: exact brute force (blocked GEMM distance blocks from
// the shared engine in distance.hpp plus a per-row partial select — the
// latent dimension is small after PCA, so this is fine for the
// few-thousand-point embeddings the monitoring pipeline draws), and
// NN-descent (Dong et al. 2011), the approximate method reference UMAP
// uses. The rpforest searcher seeds a graph from its leaves and refines it
// with nn_descent_refine; nn_descent starts from a random graph. Choosing
// a method by size is the `auto` searcher's job (ann/searcher.hpp). Both
// constructions record their wall time in the "embed.knn_seconds"
// histogram.
//
// The workspace overloads draw every scratch block (distance block, row
// norms, gathered candidate Gram) from a caller-owned linalg::Workspace and
// reuse the output graph's storage, so a snapshot loop that rebuilds the
// graph at a fixed shape performs no steady-state heap allocations on the
// serial path. The plain overloads are conveniences that own a local
// workspace per call.

#include <cstddef>
#include <utility>
#include <vector>

#include "embed/distance.hpp"
#include "linalg/matrix.hpp"
#include "linalg/workspace.hpp"
#include "rng/rng.hpp"

namespace arams::embed {

/// Flat kNN graph: neighbor j of point i sits at index i*k + j, sorted by
/// ascending distance. Distances are Euclidean.
struct KnnGraph {
  std::size_t n = 0;
  std::size_t k = 0;
  std::vector<std::size_t> neighbors;  ///< n·k indices
  std::vector<double> distances;       ///< n·k distances

  [[nodiscard]] std::size_t neighbor(std::size_t i, std::size_t j) const {
    return neighbors[i * k + j];
  }
  [[nodiscard]] double distance(std::size_t i, std::size_t j) const {
    return distances[i * k + j];
  }
};

/// Bounded insertion scan selecting the k lexicographically-smallest
/// (value, index) pairs of `value(j)`, j in [0, n), skipping `self` (pass
/// n or larger to disable self-exclusion), into `best` (caller scratch,
/// resized to k) in ascending order. One pass with an O(1) reject against
/// the current k-th value, shift-inserting the rare survivor. Equal values
/// keep the lower index first and, because j ascends, a candidate tying the
/// current worst can never improve on it — so the output is identical to a
/// build-all-pairs-and-partial_sort selection at a fraction of its memory
/// traffic. Every kNN path (exact graph, searcher queries) selects here.
template <typename ValueFn>
void select_k(std::size_t n, std::size_t self, std::size_t k,
              std::vector<std::pair<double, std::size_t>>& best,
              ValueFn value) {
  best.resize(k);
  std::size_t filled = 0;
  for (std::size_t j = 0; j < n; ++j) {
    if (j == self) continue;
    const double d = value(j);
    if (filled == k && d >= best[k - 1].first) continue;
    std::size_t pos = filled < k ? filled : k - 1;
    while (pos > 0 && best[pos - 1].first > d) {
      best[pos] = best[pos - 1];
      --pos;
    }
    best[pos] = {d, j};
    if (filled < k) ++filled;
  }
}

/// Exact kNN by blocked brute force. Excludes self-neighbours. Requires
/// k < n.
KnnGraph exact_knn(const linalg::Matrix& points, std::size_t k);

/// Workspace-backed exact kNN: distance blocks and selection scratch come
/// from `ws`, the graph is rebuilt in place into `out`.
void exact_knn(const linalg::Matrix& points, std::size_t k,
               linalg::Workspace& ws, KnnGraph& out,
               const DistanceOptions& opts = {});

/// Approximate kNN via NN-descent. `iters` full passes; `sample_rate`
/// controls the candidate pool per pass. Recall is typically > 0.9 after
/// 4–6 passes on latent data.
KnnGraph nn_descent(const linalg::Matrix& points, std::size_t k, Rng& rng,
                    int iters = 6, double sample_rate = 1.0);

/// Workspace-backed NN-descent: candidate scoring goes through gathered
/// Gram blocks drawn from `ws` instead of per-pair scalar loops.
void nn_descent(const linalg::Matrix& points, std::size_t k, Rng& rng,
                linalg::Workspace& ws, KnnGraph& out, int iters = 6,
                double sample_rate = 1.0, const DistanceOptions& opts = {});

/// Refines an existing kNN graph in place with NN-descent local-join
/// passes. `graph` must be a valid graph over `points` (n == points.rows(),
/// ascending Euclidean distances, no self/invalid neighbours) — typically
/// the leaf-co-membership seed the rpforest searcher produces, which
/// converges in far fewer passes than random initialization.
void nn_descent_refine(const linalg::Matrix& points, Rng& rng,
                       linalg::Workspace& ws, KnnGraph& graph, int iters,
                       double sample_rate = 1.0,
                       const DistanceOptions& opts = {});

/// Fraction of true kNN edges recovered (test / diagnostic helper).
double knn_recall(const KnnGraph& approx, const KnnGraph& exact);

}  // namespace arams::embed
