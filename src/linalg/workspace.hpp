#pragma once
// linalg::Workspace — a grow-only arena of reusable scratch buffers for the
// dense-kernel call chain (Gram products, Jacobi eig, Σ·Vᵀ SVD).
//
// Why: the FD shrink cycle runs millions of times per stream. Every scratch
// matrix it allocates (Gram, eig rotation accumulator, Uᵀ·B) is the same
// shape on every call, so a caller-owned workspace turns the whole cycle
// allocation-free at steady state: buffers reshape in place and std::vector
// capacity is never released.
//
// Ownership rules:
//  * One Workspace per owning object (FrequentDirections, TruncatedSvdSketch,
//    a merge call). NOT thread-safe — never share across threads.
//  * Slots are keyed by the constants in `wslot`; each kernel layer owns a
//    disjoint slot range, so the nested call chain
//    sigma_vt_svd → gram_rows → jacobi_eigen_symmetric never aliases a live
//    buffer. New kernels must claim fresh slot ids, not reuse these.
//  * mat()/vec()/idx() return storage with UNSPECIFIED contents; callers
//    must fully overwrite (or zero) what they read.
//
// Telemetry: total reserved bytes are published to the
// "linalg.workspace_bytes" gauge whenever an arena grows, so a stream job
// can confirm scratch memory stabilizes after warm-up.

#include <cstddef>
#include <deque>
#include <span>
#include <vector>

#include "linalg/eigen_sym.hpp"
#include "linalg/matrix.hpp"
#include "linalg/svd.hpp"

namespace arams::linalg {

/// Slot ids. Each kernel layer uses its own ids so nested calls compose.
namespace wslot {
inline constexpr std::size_t kSvdGram = 0;   ///< sigma_vt_svd Gram
inline constexpr std::size_t kEigWork = 1;   ///< jacobi eig rotation target
inline constexpr std::size_t kEigVectors = 2;  ///< jacobi eig accumulator
inline constexpr std::size_t kEigValues = 0;   ///< vec slot: unsorted values
inline constexpr std::size_t kEigOrder = 0;    ///< idx slot: sort permutation
// Tridiagonal eigensolver (eigen_tridiag.cpp). Jacobi and tridiag are
// alternatives at the same layer, but they keep disjoint ids so flipping
// ARAMS_EIG_METHOD mid-process never hands one solver the other's scratch.
inline constexpr std::size_t kTrdWork = 3;     ///< reduction target / V store
inline constexpr std::size_t kTrdPanelV = 4;   ///< dlatrd panel V (n×nb)
inline constexpr std::size_t kTrdPanelW = 5;   ///< dlatrd panel W (n×nb)
inline constexpr std::size_t kTrdUpdate = 6;   ///< V·Wᵀ trailing product
inline constexpr std::size_t kTrdZ = 7;        ///< QL rotation accumulator
inline constexpr std::size_t kTrdDiag = 1;     ///< vec slot: tridiag diagonal
inline constexpr std::size_t kTrdOff = 2;      ///< vec slot: tridiag off-diag
inline constexpr std::size_t kTrdTau = 3;      ///< vec slot: Householder taus
inline constexpr std::size_t kTrdScratch = 4;  ///< vec slot: reflector scratch
inline constexpr std::size_t kTrdScratch2 = 5; ///< vec slot: panel corrections
// Downstream distance engine (embed/distance.cpp) and its consumers
// (exact kNN, NN-descent scoring, UMAP transform, OPTICS, ABOD, k-means).
// The engine nests inside snapshot paths that also run the SVD/eig stack
// above, so it claims disjoint ids.
inline constexpr std::size_t kDistBlock = 8;    ///< pairwise d² block
inline constexpr std::size_t kDistGather = 9;   ///< gathered candidate rows
inline constexpr std::size_t kDistGram = 10;    ///< candidate Gram matrix
inline constexpr std::size_t kDistXNorms = 6;   ///< vec slot: query ‖·‖²
inline constexpr std::size_t kDistYNorms = 7;   ///< vec slot: reference ‖·‖²
// Approximate-NN layer (embed/ann/). Searcher queries nest on top of the
// distance engine (whose kernels consume the kDist* ids above) and inside
// consumers that hold live kDist* references of their own (OPTICS keeps a
// distance row, ABOD a neighbour Gram), so the ANN scratch claims fresh
// ids at every arena.
inline constexpr std::size_t kAnnBlock = 11;   ///< query-vs-index d²/Gram block
inline constexpr std::size_t kAnnGather = 12;  ///< gathered candidate rows
inline constexpr std::size_t kAnnGram = 13;    ///< leaf/candidate Gram matrix
inline constexpr std::size_t kAnnProj = 14;    ///< rp-tree projection column
inline constexpr std::size_t kAnnQNorms = 8;   ///< vec slot: query ‖·‖²
inline constexpr std::size_t kAnnDists = 9;    ///< vec slot: candidate d²
inline constexpr std::size_t kAnnOrder = 1;    ///< idx slot: candidate indices
// fp32 ingest lane (core/sketcher.cpp widening shim). Widening an fp32
// batch or row happens while sketch scratch above may be live, so the lane
// claims a fresh id.
inline constexpr std::size_t kIngestWiden = 15;  ///< widened fp32 batch/row
// Parallel tree merge (core/merge.cpp). Each merge group owns its own
// arena, but the merge stack nests above sigma_vt_svd in the same arena,
// so it claims a fresh id.
inline constexpr std::size_t kMergeStack = 16;   ///< stacked group sketches
}  // namespace wslot

class Workspace {
 public:
  Workspace() = default;
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;
  Workspace(Workspace&&) = default;
  Workspace& operator=(Workspace&&) = default;

  /// Matrix-shaped scratch for `slot`, reshaped to rows×cols in place.
  /// Contents unspecified. The reference stays valid until the slot is
  /// requested again with a larger footprint.
  Matrix& mat(std::size_t slot, std::size_t rows, std::size_t cols);

  /// Flat double scratch of length n for `slot`. Contents unspecified.
  std::span<double> vec(std::size_t slot, std::size_t n);

  /// Index scratch of length n for `slot` (sort permutations).
  std::span<std::size_t> idx(std::size_t slot, std::size_t n);

  /// Reusable eigendecomposition output — sigma_vt_svd funnels its
  /// internal eigen_symmetric call through this so the eigenvector matrix
  /// is recycled too.
  SymmetricEig& eig() { return eig_; }

  /// Reusable Σ·Vᵀ output — callers that rebuild one per call (e.g. PCA
  /// snapshot projection) draw it from here so its `w` factor is recycled
  /// alongside the rest of the arena.
  SigmaVt& svd() { return svd_; }

  /// Total bytes of the *live* payloads across every buffer — the honest
  /// logical footprint (what the current shapes actually occupy).
  [[nodiscard]] std::size_t bytes() const;

  /// Total heap bytes currently reserved across every buffer (grow-only
  /// high-water mark; >= bytes()). This is what the
  /// "linalg.workspace_bytes" gauge publishes — stability of the reserved
  /// total is the allocation-free-steady-state signal.
  [[nodiscard]] std::size_t capacity_bytes() const;

  /// Re-publishes capacity_bytes() to the "linalg.workspace_bytes" gauge.
  /// The workspace-accepting SVD entry points call this after the eig
  /// output (whose growth the arena cannot observe directly) may have
  /// grown.
  void publish() const { publish_bytes(); }

 private:
  void publish_bytes() const;

  // Deques, not vectors: acquiring a new slot must never move existing
  // slots — callers hold live references across nested acquisitions (e.g.
  // the eig rotation target while the eigenvector accumulator is fetched).
  std::deque<Matrix> mats_;
  std::deque<std::vector<double>> vecs_;
  std::deque<std::vector<std::size_t>> idxs_;
  SymmetricEig eig_;
  SigmaVt svd_;
};

}  // namespace arams::linalg
