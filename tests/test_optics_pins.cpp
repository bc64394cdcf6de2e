// Golden digests and a reference-traversal parity check for OPTICS.
//
// The traversal visits each point once: one distance row, one core-distance
// selection, one relaxation pass over the unprocessed points. Its output must
// stay bitwise equal to the textbook formulation — a lazy-deletion min-heap
// of (reachability, index) seeds over per-row neighbour lists — which this
// file keeps as a test-local reference. The recipe has exact duplicate rows,
// so ties in distance and reachability are exercised.
//
// The scalar-engine digest does not depend on the kernel ISA and must hold
// at any ARAMS_POOL_THREADS (ctest reruns this binary at one thread,
// optics_pins_1thread). Through the GEMM engine the bits follow the kernel
// ISA, so the default-engine configurations are checked against the
// reference traversal over the same index instead of against a constant.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <queue>

#include "cluster/optics.hpp"
#include "embed/ann/searcher.hpp"
#include "linalg/matrix.hpp"
#include "linalg/workspace.hpp"
#include "rng/rng.hpp"

namespace arams::cluster {
namespace {

using linalg::Matrix;

// The pool size is frozen on first use; default to four workers. An
// ARAMS_POOL_THREADS already in the environment wins (overwrite = 0).
const int g_pool_env = ::setenv("ARAMS_POOL_THREADS", "4", 0);

constexpr double kInf = std::numeric_limits<double>::infinity();

void mix(std::uint64_t& h, std::uint64_t bits) {
  for (int byte = 0; byte < 8; ++byte) {
    h ^= (bits >> (8 * byte)) & 0xffu;
    h *= 0x100000001b3ull;
  }
}

/// FNV-1a-64 over `order` (each index as 8 little-endian bytes), then
/// `reachability`, then `core_distance` (8 bytes each).
std::uint64_t digest(const OpticsResult& r) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::size_t i : r.order) mix(h, static_cast<std::uint64_t>(i));
  for (const auto* values : {&r.reachability, &r.core_distance}) {
    for (const double v : *values) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &v, sizeof bits);
      mix(h, bits);
    }
  }
  return h;
}

/// The recipe: 1500×2 standard normals from Rng(31), filled row-major, then
/// row i := row i−1 for i = 50, 100, …, 1450 (exact ties).
Matrix recipe_points() {
  Matrix pts(1500, 2);
  Rng rng(31);
  for (std::size_t i = 0; i < pts.rows(); ++i) {
    for (auto& v : pts.row(i)) v = rng.normal();
  }
  for (std::size_t i = 50; i < pts.rows(); i += 50) {
    pts.set_row(i, pts.row(i - 1));
  }
  return pts;
}

const OpticsConfig kConfigA{.min_pts = 30};
const OpticsConfig kConfigB{.min_pts = 5};
const OpticsConfig kConfigC{.min_pts = 5, .max_eps = 0.1};

/// Reference traversal: per-row neighbour gather, nth_element core
/// distance, and a lazy-deletion min-heap of seeds pushed on strict
/// improvement.
OpticsResult heap_optics(const embed::NeighborSearcher& index,
                         const OpticsConfig& config, linalg::Workspace& ws,
                         const embed::DistanceOptions& opts) {
  const Matrix& points = index.points();
  const std::size_t n = points.rows();
  OpticsResult result;
  result.reachability.assign(n, kInf);
  result.core_distance.assign(n, kInf);
  std::vector<bool> processed(n, false);
  std::vector<double> dists(n);
  std::vector<double> dsq(n);
  std::vector<std::size_t> neighbors;
  std::vector<double> nd;

  const auto range_query = [&](std::size_t p) {
    index.sq_dists_to(points.row(p), ws, dsq, opts);
    neighbors.clear();
    nd.clear();
    for (std::size_t q = 0; q < n; ++q) {
      if (q == p) continue;
      dists[q] = std::sqrt(dsq[q]);
      if (dists[q] <= config.max_eps) {
        neighbors.push_back(q);
        nd.push_back(dists[q]);
      }
    }
    if (neighbors.size() + 1 >= config.min_pts) {
      const auto kth = static_cast<std::ptrdiff_t>(config.min_pts - 2);
      std::nth_element(nd.begin(), nd.begin() + kth, nd.end());
      result.core_distance[p] = nd[static_cast<std::size_t>(kth)];
    }
  };

  using Seed = std::pair<double, std::size_t>;
  std::priority_queue<Seed, std::vector<Seed>, std::greater<>> seeds;
  const auto update_seeds = [&](std::size_t p) {
    const double core = result.core_distance[p];
    if (std::isinf(core)) return;
    for (const std::size_t q : neighbors) {
      if (processed[q]) continue;
      const double reach = std::max(core, dists[q]);
      if (reach < result.reachability[q]) {
        result.reachability[q] = reach;
        seeds.emplace(reach, q);
      }
    }
  };
  const auto visit = [&](std::size_t p) {
    processed[p] = true;
    range_query(p);
    result.order.push_back(p);
    update_seeds(p);
  };

  for (std::size_t start = 0; start < n; ++start) {
    if (processed[start]) continue;
    visit(start);
    while (!seeds.empty()) {
      const auto [r, q] = seeds.top();
      seeds.pop();
      if (processed[q] || r > result.reachability[q]) continue;  // stale
      visit(q);
    }
  }
  return result;
}

void expect_parity(const OpticsConfig& config,
                   const Matrix& pts = recipe_points()) {
  linalg::Workspace ws;
  const auto index = embed::make_searcher("exact", /*seed=*/0);
  index->build(pts, ws);
  const OpticsResult got = optics(*index, config, ws);
  const OpticsResult want = heap_optics(*index, config, ws, {});
  EXPECT_EQ(got.order, want.order);
  EXPECT_EQ(digest(got), digest(want));
}

TEST(OpticsPins, ScalarEngineDigest) {
  const Matrix pts = recipe_points();
  linalg::Workspace ws;
  const OpticsResult r =
      optics(pts, kConfigB, ws, {.use_gemm = false, .allow_parallel = false});
  EXPECT_EQ(digest(r), 0x7cb296398bf5c023ull);
}

TEST(OpticsPins, HeapParityMinPts30) { expect_parity(kConfigA); }

TEST(OpticsPins, HeapParityMinPts5) { expect_parity(kConfigB); }

TEST(OpticsPins, HeapParityFiniteEps) { expect_parity(kConfigC); }

TEST(OpticsPins, HeapParityOnTheEpsBoundary) {
  // A unit grid at max_eps = 1: every axis neighbour sits exactly on the
  // ε boundary, and distances and reachabilities tie everywhere.
  Matrix grid(12 * 12, 2);
  for (std::size_t i = 0; i < grid.rows(); ++i) {
    grid(i, 0) = static_cast<double>(i % 12);
    grid(i, 1) = static_cast<double>(i / 12);
  }
  expect_parity({.min_pts = 4, .max_eps = 1.0}, grid);
  expect_parity({.min_pts = 5, .max_eps = 1.0}, grid);
}

TEST(OpticsPins, FiniteEpsRecipeHasNoiseAndBreaks) {
  // The finite-ε case exercises both restart paths: non-core points that
  // expand nothing and unprocessed points left at infinite reachability.
  const OpticsResult r = optics(recipe_points(), kConfigC);
  EXPECT_EQ(std::count(r.reachability.begin(), r.reachability.end(), kInf),
            641);
  EXPECT_EQ(std::count(r.core_distance.begin(), r.core_distance.end(), kInf),
            789);
}

}  // namespace
}  // namespace arams::cluster
