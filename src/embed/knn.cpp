#include "embed/knn.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "linalg/blas.hpp"
#include "obs/metrics.hpp"
#include "parallel/thread_pool.hpp"
#include "util/check.hpp"
#include "util/stopwatch.hpp"

namespace arams::embed {

using linalg::Matrix;
using linalg::MatrixView;

namespace {

obs::Histogram& knn_seconds() {
  static obs::Histogram& h = obs::metrics().histogram("embed.knn_seconds");
  return h;
}

/// Bounded neighbour list used by NN-descent: a flat array of
/// (distance, index, is_new) keeping the k smallest distances seen.
///
/// The worst entry (index + distance) is cached: a non-improving candidate
/// is rejected in O(1) against the cached distance before the O(k)
/// duplicate scan runs, and the cache is refreshed only on a successful
/// replacement — so a join step over c candidates costs O(c + hits·k)
/// instead of the former O(c·k) with a redundant re-scan in worst().
struct NeighborList {
  struct Item {
    double dist = std::numeric_limits<double>::infinity();
    std::size_t index = static_cast<std::size_t>(-1);
    bool is_new = false;
  };
  std::vector<Item> items;
  std::size_t worst_at = 0;
  double worst_dist = std::numeric_limits<double>::infinity();

  explicit NeighborList(std::size_t k) : items(k) {}

  [[nodiscard]] double worst() const { return worst_dist; }

  void refresh_worst() {
    worst_at = 0;
    worst_dist = -1.0;
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (items[i].dist > worst_dist) {
        worst_dist = items[i].dist;
        worst_at = i;
      }
    }
  }

  /// Inserts (dist, idx) if it improves the list; returns true on change.
  bool try_insert(double dist, std::size_t idx) {
    if (dist >= worst_dist) return false;  // cannot improve the list
    for (const auto& it : items) {
      if (it.index == idx) return false;  // already present
    }
    items[worst_at] = Item{dist, idx, true};
    refresh_worst();
    return true;
  }
};

/// Selects the k nearest of the n candidate squared distances `value(j)`,
/// excluding `self`, into the graph slots of point `self`. `value` is invoked
/// once per candidate in ascending j — callers fuse the Gram-trick norm
/// fix-up into it so a distance block is traversed exactly once.
template <typename ValueFn>
void select_row(std::size_t n, std::size_t self, std::size_t k, KnnGraph& g,
                ValueFn value) {
  // Per-thread grow-only scratch: the parallel selection path stays
  // allocation-free at steady state.
  thread_local std::vector<std::pair<double, std::size_t>> best;
  select_k(n, self, k, best, value);
  for (std::size_t j = 0; j < k; ++j) {
    g.neighbors[self * k + j] = best[j].second;
    g.distances[self * k + j] = std::sqrt(best[j].first);
  }
}

}  // namespace

namespace {

/// Shared k-vs-n validation for the self-excluding graph builders. A point
/// set of n rows has only n−1 candidate neighbours per point, so k ≥ n can
/// never be satisfied — reject loudly (with the offending values) instead
/// of silently producing a graph padded with sentinel indices.
void check_graph_args(std::size_t n, std::size_t k) {
  ARAMS_CHECK(n >= 2, "kNN graph needs at least two points (got n=" +
                          std::to_string(n) +
                          "); a single point has no neighbours");
  ARAMS_CHECK(k >= 1 && k < n,
              "kNN graph needs 1 <= k < n (got k=" + std::to_string(k) +
                  ", n=" + std::to_string(n) + ")");
}

}  // namespace

void exact_knn(const Matrix& points, std::size_t k, linalg::Workspace& ws,
               KnnGraph& g, const DistanceOptions& opts) {
  const std::size_t n = points.rows();
  check_graph_args(n, k);
  Stopwatch timer;

  g.n = n;
  g.k = k;
  g.neighbors.resize(n * k);
  g.distances.resize(n * k);

  const auto norms = ws.vec(linalg::wslot::kDistYNorms, n);
  if (opts.use_gemm) row_sq_norms(points, norms);

  // Block of query rows per distance block: big enough that the GEMM core
  // reaches its packed fast path, small enough that the whole block stays
  // cache-resident until the selection pass consumes it (at n=4096 a
  // 128-row block is 4 MB; measured fastest end-to-end against
  // 32/64/256/512-row alternatives on the Section VI-B shapes).
  constexpr std::size_t kBlock = 128;
  Matrix& d = ws.mat(linalg::wslot::kDistBlock, std::min(kBlock, n), n);

  for (std::size_t b0 = 0; b0 < n; b0 += kBlock) {
    const std::size_t rows = std::min(kBlock, n - b0);
    const MatrixView queries = MatrixView::rows_of(points, b0, b0 + rows);
    if (opts.use_gemm) {
      // Gram-only block: the ‖q‖² + ‖p‖² − 2g fix-up is fused into the
      // selection scan below, so each block is traversed exactly once
      // (the fix-up expression matches pairwise_sq_dists_prenormed's, so
      // selected distances are identical to the unfused engine path).
      pairwise_gram(queries, points, d);
    } else {
      pairwise_sq_dists_prenormed(queries, points, norms.subspan(b0, rows),
                                  norms, ws, d, opts);
    }

    const auto select_band = [&](std::size_t r0, std::size_t r1) {
      for (std::size_t r = r0; r < r1; ++r) {
        const std::size_t self = b0 + r;
        const double* row = d.row(r).data();
        if (opts.use_gemm) {
          const double qn = norms[self];
          select_row(n, self, k, g, [&](std::size_t j) {
            return std::max(0.0, qn + norms[j] - 2.0 * row[j]);
          });
        } else {
          select_row(n, self, k, g, [&](std::size_t j) { return row[j]; });
        }
      }
    };
    parallel::for_each_band(row_band_pool(rows * n, opts), rows,
                            select_band);
  }
  knn_seconds().observe(timer.seconds());
}

KnnGraph exact_knn(const Matrix& points, std::size_t k) {
  linalg::Workspace ws;
  KnnGraph g;
  exact_knn(points, k, ws, g);
  return g;
}

namespace {

/// The NN-descent local-join iterations (Dong et al. 2011), shared by the
/// randomly-initialized builder below and by nn_descent_refine (which seeds
/// the lists from rp-forest candidates instead). Distances in `lists` are
/// squared Euclidean.
void descent_iterations(const Matrix& points, std::vector<NeighborList>& lists,
                        std::size_t k, Rng& rng, linalg::Workspace& ws,
                        int iters, double sample_rate,
                        const DistanceOptions& opts) {
  const std::size_t n = points.rows();
  // Candidate Gram scoring: the union of a join's candidates is gathered
  // into a contiguous block and its Gram matrix computed once through the
  // tiled kernel; each pair's distance is then the rank-1 combination
  // G(a,a) + G(b,b) − 2·G(a,b). Unions smaller than this stay on the
  // scalar path (the Gram's extra old–old entries would not amortize).
  constexpr std::size_t kGramCutoff = 8;
  Matrix& gathered = ws.mat(linalg::wslot::kDistGather, 1, points.cols());
  Matrix& gram = ws.mat(linalg::wslot::kDistGram, 1, 1);

  std::vector<std::vector<std::size_t>> fwd_new(n), fwd_old(n), rev_new(n),
      rev_old(n);
  std::vector<std::size_t> union_idx;
  for (int iter = 0; iter < iters; ++iter) {
    for (auto& v : fwd_new) v.clear();
    for (auto& v : fwd_old) v.clear();
    for (auto& v : rev_new) v.clear();
    for (auto& v : rev_old) v.clear();

    for (std::size_t i = 0; i < n; ++i) {
      for (auto& it : lists[i].items) {
        if (it.index == static_cast<std::size_t>(-1)) continue;
        if (it.is_new) {
          if (sample_rate >= 1.0 || rng.uniform() < sample_rate) {
            fwd_new[i].push_back(it.index);
            rev_new[it.index].push_back(i);
            it.is_new = false;
          }
        } else {
          fwd_old[i].push_back(it.index);
          rev_old[it.index].push_back(i);
        }
      }
    }

    long updates = 0;
    std::vector<std::size_t> new_c, old_c;
    for (std::size_t i = 0; i < n; ++i) {
      new_c = fwd_new[i];
      new_c.insert(new_c.end(), rev_new[i].begin(), rev_new[i].end());
      old_c = fwd_old[i];
      old_c.insert(old_c.end(), rev_old[i].begin(), rev_old[i].end());
      if (new_c.empty()) continue;

      const std::size_t u = new_c.size() + old_c.size();
      const bool use_gram = opts.use_gemm && u >= kGramCutoff;
      if (use_gram) {
        union_idx.assign(new_c.begin(), new_c.end());
        union_idx.insert(union_idx.end(), old_c.begin(), old_c.end());
        gather_rows(points, union_idx, gathered);
        linalg::gram_rows(gathered, gram);
      }
      // Candidate (a, b) positions within the union: new entries first,
      // old entries after, matching union_idx.
      const auto pair_dist = [&](std::size_t pa, std::size_t pb, std::size_t a,
                                 std::size_t b) {
        if (use_gram) {
          return std::max(0.0,
                          gram(pa, pa) + gram(pb, pb) - 2.0 * gram(pa, pb));
        }
        return sq_dist(points.row(a), points.row(b));
      };

      // new-new pairs and new-old pairs share an anchor at i; each pair is
      // a candidate edge.
      for (std::size_t a = 0; a < new_c.size(); ++a) {
        const std::size_t pu = new_c[a];
        for (std::size_t b = a + 1; b < new_c.size(); ++b) {
          const std::size_t pv = new_c[b];
          if (pu == pv) continue;
          const double dd = pair_dist(a, b, pu, pv);
          updates += lists[pu].try_insert(dd, pv) ? 1 : 0;
          updates += lists[pv].try_insert(dd, pu) ? 1 : 0;
        }
        for (std::size_t b = 0; b < old_c.size(); ++b) {
          const std::size_t pv = old_c[b];
          if (pu == pv) continue;
          const double dd = pair_dist(a, new_c.size() + b, pu, pv);
          updates += lists[pu].try_insert(dd, pv) ? 1 : 0;
          updates += lists[pv].try_insert(dd, pu) ? 1 : 0;
        }
      }
    }
    if (updates <= static_cast<long>(0.001 * static_cast<double>(n * k))) {
      break;  // converged early
    }
  }
}

/// Writes the (squared-distance) neighbour lists into `g`, sorted ascending
/// with Euclidean distances.
void lists_to_graph(const std::vector<NeighborList>& lists, std::size_t k,
                    KnnGraph& g) {
  const std::size_t n = lists.size();
  g.n = n;
  g.k = k;
  g.neighbors.resize(n * k);
  g.distances.resize(n * k);
  std::vector<std::pair<double, std::size_t>> sorted(k);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < k; ++j) {
      sorted[j] = {lists[i].items[j].dist, lists[i].items[j].index};
    }
    std::sort(sorted.begin(), sorted.end());
    for (std::size_t j = 0; j < k; ++j) {
      g.neighbors[i * k + j] = sorted[j].second;
      g.distances[i * k + j] = std::sqrt(sorted[j].first);
    }
  }
}

}  // namespace

void nn_descent(const Matrix& points, std::size_t k, Rng& rng,
                linalg::Workspace& ws, KnnGraph& g, int iters,
                double sample_rate, const DistanceOptions& opts) {
  const std::size_t n = points.rows();
  check_graph_args(n, k);
  Stopwatch timer;

  std::vector<NeighborList> lists(n, NeighborList(k));
  // Random initialization.
  for (std::size_t i = 0; i < n; ++i) {
    while (true) {
      bool full = true;
      for (const auto& it : lists[i].items) {
        if (it.index == static_cast<std::size_t>(-1)) {
          full = false;
          break;
        }
      }
      if (full) break;
      std::size_t j = rng.uniform_index(n);
      if (j == i) continue;
      lists[i].try_insert(sq_dist(points.row(i), points.row(j)), j);
    }
  }

  descent_iterations(points, lists, k, rng, ws, iters, sample_rate, opts);
  lists_to_graph(lists, k, g);
  knn_seconds().observe(timer.seconds());
}

void nn_descent_refine(const Matrix& points, Rng& rng, linalg::Workspace& ws,
                       KnnGraph& g, int iters, double sample_rate,
                       const DistanceOptions& opts) {
  const std::size_t n = points.rows();
  const std::size_t k = g.k;
  check_graph_args(n, k);
  ARAMS_CHECK(g.n == n, "nn_descent_refine: graph covers " +
                            std::to_string(g.n) + " points, expected " +
                            std::to_string(n));
  if (iters <= 0) return;
  Stopwatch timer;

  // Seed the bounded lists from the caller's graph (Euclidean distances →
  // the squared form the join arithmetic uses), every entry marked new so
  // the first pass joins the full seed neighbourhood.
  std::vector<NeighborList> lists(n, NeighborList(k));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < k; ++j) {
      const std::size_t idx = g.neighbor(i, j);
      ARAMS_CHECK(idx < n && idx != i,
                  "nn_descent_refine: seed graph has invalid neighbour " +
                      std::to_string(idx) + " for point " + std::to_string(i));
      const double d = g.distance(i, j);
      lists[i].items[j] = NeighborList::Item{d * d, idx, true};
    }
    lists[i].refresh_worst();
  }

  descent_iterations(points, lists, k, rng, ws, iters, sample_rate, opts);
  lists_to_graph(lists, k, g);
  knn_seconds().observe(timer.seconds());
}

KnnGraph nn_descent(const Matrix& points, std::size_t k, Rng& rng, int iters,
                    double sample_rate) {
  linalg::Workspace ws;
  KnnGraph g;
  nn_descent(points, k, rng, ws, g, iters, sample_rate);
  return g;
}

double knn_recall(const KnnGraph& approx, const KnnGraph& exact) {
  ARAMS_CHECK(approx.n == exact.n && approx.k == exact.k,
              "graphs not comparable");
  long hits = 0;
  for (std::size_t i = 0; i < exact.n; ++i) {
    for (std::size_t j = 0; j < exact.k; ++j) {
      const std::size_t target = exact.neighbor(i, j);
      for (std::size_t l = 0; l < approx.k; ++l) {
        if (approx.neighbor(i, l) == target) {
          ++hits;
          break;
        }
      }
    }
  }
  return static_cast<double>(hits) /
         static_cast<double>(exact.n * exact.k);
}

}  // namespace arams::embed
