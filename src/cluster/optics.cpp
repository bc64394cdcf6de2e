#include "cluster/optics.hpp"

#include <algorithm>
#include <cmath>

#include "embed/knn.hpp"
#include "obs/metrics.hpp"
#include "util/check.hpp"
#include "util/stopwatch.hpp"

namespace arams::cluster {

using linalg::Matrix;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Largest squared distance whose square root is within `eps`, so that
/// `dsq <= threshold` tests exactly `std::sqrt(dsq) <= eps` without the
/// root (sqrt is correctly rounded, hence monotone). −∞ when no distance
/// qualifies (negative or NaN eps).
double sq_threshold(double eps) {
  if (!(eps >= 0.0)) return -kInf;
  if (std::isinf(eps)) return kInf;
  double t = eps * eps;
  while (std::sqrt(t) > eps) t = std::nextafter(t, 0.0);
  for (double up = std::nextafter(t, kInf); std::sqrt(up) <= eps;
       up = std::nextafter(t, kInf)) {
    t = up;
  }
  return t;
}

}  // namespace

OpticsResult optics(embed::NeighborSearcher& index, const OpticsConfig& config,
                    linalg::Workspace& ws,
                    const embed::DistanceOptions& opts) {
  const Matrix& points = index.points();
  const std::size_t n = points.rows();
  ARAMS_CHECK(n >= 2, "OPTICS needs at least two points");
  ARAMS_CHECK(config.min_pts >= 2 && config.min_pts <= n,
              "min_pts out of range");
  static obs::Histogram& core_dist_seconds =
      obs::metrics().histogram("cluster.core_dist_seconds");
  Accumulator range_time;

  OpticsResult result;
  result.order.reserve(n);
  result.reachability.assign(n, kInf);
  result.core_distance.assign(n, kInf);

  const double eps_sq = sq_threshold(config.max_eps);
  std::vector<double> dsq(n);
  std::vector<std::pair<double, std::size_t>> best;
  // Unprocessed points, ascending: the first entry is the next start.
  std::vector<std::size_t> pending(n);
  for (std::size_t q = 0; q < n; ++q) pending[q] = q;

  std::size_t p = 0;
  for (std::size_t visited = 0; visited < n; ++visited) {
    // Distance row plus core distance = distance to the (min_pts−1)-th
    // neighbour within max_eps (the point itself counts toward min_pts, as
    // in the original paper). Selecting on squared distances and taking
    // one root gives the same double: sqrt is monotone.
    Stopwatch timer;
    index.sq_dists_to(points.row(p), ws, dsq, opts);
    embed::select_k(n, p, config.min_pts - 1, best, [&](std::size_t q) {
      return dsq[q] <= eps_sq ? dsq[q] : kInf;
    });
    const double kth = best.back().first;
    const double core = std::isinf(kth) ? kInf : std::sqrt(kth);
    result.core_distance[p] = core;
    range_time.add(timer.seconds());
    result.order.push_back(p);

    const bool expands = !std::isinf(core);  // non-core points expand nothing
    // One pass over the unprocessed points: drop p, relax reachabilities
    // through p, and pick the lexicographic minimum of (reachability,
    // index) — exactly what a lazy-deletion min-heap of strict
    // improvements would pop next.
    std::size_t kept = 0;
    std::size_t next = n;
    double next_reach = kInf;
    for (std::size_t i = 0; i < pending.size(); ++i) {
      const std::size_t q = pending[i];
      if (q == p) continue;
      pending[kept++] = q;
      if (expands && dsq[q] <= eps_sq) {
        const double reach = std::max(core, std::sqrt(dsq[q]));
        if (reach < result.reachability[q]) result.reachability[q] = reach;
      }
      if (result.reachability[q] < next_reach) {
        next_reach = result.reachability[q];
        next = q;
      }
    }
    pending.resize(kept);
    // No finite candidate: restart at the lowest unprocessed index.
    if (kept > 0) p = next < n ? next : pending.front();
  }
  core_dist_seconds.observe(range_time.total_seconds());
  return result;
}

OpticsResult optics(const Matrix& points, const OpticsConfig& config,
                    linalg::Workspace& ws,
                    const embed::DistanceOptions& opts) {
  const auto index = embed::make_searcher("exact", /*seed=*/0);
  index->build(points, ws, opts);
  return optics(*index, config, ws, opts);
}

OpticsResult optics(const Matrix& points, const OpticsConfig& config) {
  linalg::Workspace ws;
  return optics(points, config, ws);
}

std::vector<int> extract_dbscan(const OpticsResult& result, double eps) {
  const std::size_t n = result.order.size();
  std::vector<int> labels(n, -1);
  int cluster = -1;
  for (const std::size_t p : result.order) {
    if (result.reachability[p] > eps) {
      if (result.core_distance[p] <= eps) {
        ++cluster;
        labels[p] = cluster;
      }  // else: noise, stays -1
    } else if (cluster >= 0) {
      labels[p] = cluster;
    }
  }
  return labels;
}

namespace {

/// Recursive reachability-valley splitting (simplified ξ extraction, see
/// header). Positions are indices into result.order.
void split_interval(const std::vector<double>& r, std::size_t s,
                    std::size_t e, double xi, std::size_t min_size,
                    std::vector<std::pair<std::size_t, std::size_t>>& leaves) {
  if (e - s < min_size) return;
  // Largest interior reachability is the candidate split point; position s
  // is excluded because r[s] is the entry edge into this valley.
  std::size_t m = s + 1;
  for (std::size_t i = s + 1; i < e; ++i) {
    if (r[i] > r[m]) m = i;
  }
  // Significance: the candidate must be a statistical outlier against the
  // rest of the valley (mean + 3σ), shrunk by the ξ factor. Ordinary
  // intra-cluster reachability noise stays below this; genuine
  // cluster-boundary spikes exceed it by an order of magnitude.
  double mean = 0.0, m2 = 0.0;
  std::size_t count = 0;
  for (std::size_t i = s + 1; i < e; ++i) {
    if (i == m || std::isinf(r[i])) continue;
    ++count;
    const double delta = r[i] - mean;
    mean += delta / static_cast<double>(count);
    m2 += delta * (r[i] - mean);
  }
  const double stddev =
      count > 1 ? std::sqrt(m2 / static_cast<double>(count - 1)) : 0.0;
  const bool significant =
      std::isinf(r[m]) ||
      (count > 1 && r[m] * (1.0 - xi) > mean + 3.0 * stddev);
  if (!significant) {
    leaves.emplace_back(s, e);
    return;
  }
  const std::size_t before = leaves.size();
  split_interval(r, s, m, xi, min_size, leaves);
  split_interval(r, m, e, xi, min_size, leaves);
  if (leaves.size() == before) {
    // Both halves too small — keep the whole interval as one cluster.
    leaves.emplace_back(s, e);
  }
}

}  // namespace

std::vector<int> extract_xi(const OpticsResult& result, double xi,
                            std::size_t min_cluster_size) {
  ARAMS_CHECK(xi > 0.0 && xi < 1.0, "xi must be in (0, 1)");
  const std::size_t n = result.order.size();
  // Reachability in ordering position space.
  std::vector<double> r(n);
  for (std::size_t pos = 0; pos < n; ++pos) {
    r[pos] = result.reachability[result.order[pos]];
  }
  std::vector<std::pair<std::size_t, std::size_t>> leaves;
  split_interval(r, 0, n, xi, min_cluster_size, leaves);

  std::vector<int> labels(n, -1);
  int cluster = 0;
  for (const auto& [s, e] : leaves) {
    for (std::size_t pos = s; pos < e; ++pos) {
      labels[result.order[pos]] = cluster;
    }
    ++cluster;
  }
  return labels;
}

std::vector<int> extract_auto(const OpticsResult& result, double quantile) {
  ARAMS_CHECK(quantile > 0.0 && quantile < 1.0, "quantile must be in (0,1)");
  std::vector<double> finite;
  finite.reserve(result.reachability.size());
  for (const double v : result.reachability) {
    if (!std::isinf(v)) finite.push_back(v);
  }
  if (finite.empty()) {
    return std::vector<int>(result.order.size(), -1);
  }
  const auto idx = static_cast<std::size_t>(
      quantile * static_cast<double>(finite.size() - 1));
  std::nth_element(finite.begin(),
                   finite.begin() + static_cast<std::ptrdiff_t>(idx),
                   finite.end());
  // A small headroom above the quantile keeps cluster interiors connected.
  return extract_dbscan(result, finite[idx] * 1.05);
}

std::size_t cluster_count(const std::vector<int>& labels) {
  int mx = -1;
  for (const int l : labels) mx = std::max(mx, l);
  return static_cast<std::size_t>(mx + 1);
}

}  // namespace arams::cluster
