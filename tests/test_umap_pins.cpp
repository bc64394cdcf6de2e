// Golden digests of the UMAP layouts and the out-of-sample placement.
//
// Both optimizers and umap_transform share one edge schedule, one per-edge
// SGD step and one attractive coefficient; these pins hold every layout
// and placement bitwise fixed across refactors of that kernel. The batch
// optimizer's partitioning and reduction order do not depend on the pool
// size, so the same digests must hold at any ARAMS_POOL_THREADS — ctest
// reruns this binary at one thread (umap_pins_1thread).
//
// The recipe keeps the hot GEMM kernels out of the pinned arithmetic: the
// kNN distances take the scalar path (use_gemm = false) and the init is
// random, not PCA. Through the GEMM kernels the digests would follow the
// kernel ISA and build flags (FMA contraction), not the code under test.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>

#include "embed/umap.hpp"
#include "linalg/matrix.hpp"
#include "linalg/workspace.hpp"
#include "rng/rng.hpp"

namespace arams::embed {
namespace {

using linalg::Matrix;

// The pool size is frozen on first use; default to four workers so the
// batch optimizer's parallel epochs run even on a one-core box. An
// ARAMS_POOL_THREADS already in the environment wins (overwrite = 0).
const int g_pool_env = ::setenv("ARAMS_POOL_THREADS", "4", 0);

/// FNV-1a-64 over each coordinate's 8 little-endian bytes, row-major.
std::uint64_t digest(const Matrix& m) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i < m.rows(); ++i) {
    for (const double v : m.row(i)) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &v, sizeof bits);
      for (int byte = 0; byte < 8; ++byte) {
        h ^= (bits >> (8 * byte)) & 0xffu;
        h *= 0x100000001b3ull;
      }
    }
  }
  return h;
}

/// The recipe: 600×16 reference rows, then 50×16 fresh rows, all standard
/// normals from one Rng(13) stream filled row-major; n_neighbors = 12,
/// n_epochs = 50, random init, scalar distances.
struct Recipe {
  Matrix points{600, 16};
  Matrix fresh{50, 16};
  UmapConfig config;
  linalg::Workspace ws;
  const DistanceOptions scalar{.use_gemm = false};

  Recipe() {
    Rng rng(13);
    for (Matrix* m : {&points, &fresh}) {
      for (std::size_t i = 0; i < m->rows(); ++i) {
        for (auto& v : m->row(i)) v = rng.normal();
      }
    }
    config.n_neighbors = 12;
    config.n_epochs = 50;
    config.init = UmapConfig::Init::kRandom;
  }

  Matrix embed(UmapConfig::Optimizer optimizer) {
    UmapConfig c = config;
    c.optimizer = optimizer;
    return umap_embed(points, c, ws, scalar);
  }
};

TEST(UmapPins, SerialLayoutDigest) {
  Recipe r;
  EXPECT_EQ(digest(r.embed(UmapConfig::Optimizer::kSerial)),
            0xec0e4bda76b7b062ull);
}

TEST(UmapPins, BatchLayoutDigest) {
  Recipe r;
  EXPECT_EQ(digest(r.embed(UmapConfig::Optimizer::kBatchParallel)),
            0xae5a09e984de2048ull);
}

TEST(UmapPins, TransformPlacementDigest) {
  Recipe r;
  const Matrix y = r.embed(UmapConfig::Optimizer::kAuto);  // serial here
  EXPECT_EQ(digest(umap_transform(r.points, y, r.fresh, r.config, r.ws,
                                  r.scalar)),
            0x7f0fd3ecceab3f50ull);
}

}  // namespace
}  // namespace arams::embed
