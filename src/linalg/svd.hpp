#pragma once
// Singular value decompositions.
//
// One production entry point plus a reference:
//  * sigma_vt_svd — the Σ·Vᵀ part of the SVD for any shape, through the
//    smaller Gram eigenproblem (m×m row Gram for short-fat input, n×n
//    column Gram for tall). Row i of its `w` equals σᵢ·vᵢᵀ: the FD shrink
//    rescales those rows directly and never forms Vᵀ, avoiding divisions
//    by tiny singular values. Cost O(m²d + m³) for an m×d sketch buffer
//    instead of O(md²). FD, every merge and the PCA projector use it.
//  * jacobi_svd — reference one-sided Jacobi (Hestenes) SVD for any shape.
//    Unconditionally stable; used in tests and wherever full U, Σ, Vᵀ of a
//    modest matrix are needed (e.g. PCA of a tall sketch).

#include <span>
#include <vector>

#include "linalg/matrix.hpp"
#include "rng/rng.hpp"

namespace arams::linalg {

struct ThinSvd {
  Matrix u;                   ///< m×r, orthonormal columns
  std::vector<double> sigma;  ///< r singular values, descending, >= 0
  Matrix vt;                  ///< r×n, orthonormal rows
};

/// One-sided Jacobi SVD. Returns the thin factorization with
/// r = min(m, n). Throws CheckError on empty input.
ThinSvd jacobi_svd(const Matrix& a, double tol = 1e-12, int max_sweeps = 60);

class Workspace;

/// Recovers the top-k right singular vectors (k×d, orthonormal rows) from
/// a Σ·Vᵀ pair — descending `sigma` and `w` whose row i is sigma[i]·vᵢᵀ (a
/// SigmaVt's) — skipping directions with sigma below `rank_tol` relative
/// to sigma[0]. Returns fewer than k rows if the
/// numerical rank is smaller. The default tolerance reflects the Gram
/// trick's squared conditioning: singular values below ~√ε·σ₀ are
/// numerical noise. FD, the sketcher seam and PCA all normalize here.
Matrix right_vectors(std::span<const double> sigma, MatrixView w,
                     std::size_t k, double rank_tol = 1e-7);

/// Reconstructs u * diag(sigma) * vt — test helper.
Matrix svd_reconstruct(const ThinSvd& s);

/// The Σ·Vᵀ part of the SVD, for any orientation — exactly what the FD
/// shrink consumes. Row i of `w` equals sigma[i]·vᵢᵀ. Dispatches on shape:
/// short-fat matrices go through the m×m row Gram, tall ones through the
/// n×n column Gram — always the smaller eigenproblem.
struct SigmaVt {
  std::vector<double> sigma;  ///< all min(m, n) values, descending, >= 0
  Matrix w;                   ///< min(m, n, max_rank) × n, row i = sigma[i]·vᵢᵀ
};
SigmaVt sigma_vt_svd(const Matrix& a);

/// Allocation-free variant — the FD shrink entry point. The caller holds
/// one Workspace and one SigmaVt for the lifetime of the sketch; at steady
/// state (constant buffer shape) this performs zero heap allocations.
/// `a` must not alias workspace storage (it is read after scratch matrices
/// are written). `max_rank` caps the rows of `w` (sigma always holds every
/// value): the FD shrink keeps at most ℓ−1 of its 2ℓ directions and PCA
/// keeps k, so passing the cap skips the eigenvector back-transformation
/// and W-forming work for the rest.
void sigma_vt_svd(MatrixView a, Workspace& ws, SigmaVt& out,
                  std::size_t max_rank = static_cast<std::size_t>(-1));

/// Randomized truncated SVD (Halko, Martinsson, Tropp 2011): Gaussian
/// range sketch with `oversample` extra directions and `power_iters`
/// subspace iterations, then an exact SVD of the (k+p)×n projection.
/// Near-optimal for matrices with spectral decay; cost O(ndk) instead of
/// O(nd·min(n,d)). Returns at most k components.
ThinSvd randomized_svd(const Matrix& a, std::size_t k, Rng& rng,
                       std::size_t oversample = 8, int power_iters = 2);

}  // namespace arams::linalg
