#pragma once
// Singular value decompositions.
//
// Two implementations with different roles:
//  * jacobi_svd — reference one-sided Jacobi (Hestenes) SVD for any shape.
//    Unconditionally stable; used in tests and wherever full U, Σ, Vᵀ of a
//    modest matrix are needed (e.g. PCA of a final sketch).
//  * gram_row_svd — the production kernel for the FD shrink: for a short-fat
//    sketch buffer B (m×d, m ≪ d) it eigendecomposes the m×m Gram matrix
//    B·Bᵀ and returns W = Uᵀ·B whose row i equals σᵢ·vᵢᵀ. The FD shrink
//    rescales those rows directly and never forms Vᵀ, avoiding divisions by
//    tiny singular values. Cost O(m²d + m³) instead of O(md²).

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

struct RowSpaceSvd {
  std::vector<double> sigma;  ///< all m singular values, descending, >= 0
  Matrix u;                   ///< m×r, orthonormal columns (left vectors);
                              ///< r = min(m, max_rank)
  Matrix w;                   ///< r×d, row i = sigma[i] * v_iᵀ
};

class Workspace;

/// SVD of a short-fat matrix through its row Gram matrix. Requires
/// rows <= cols. Row i of `w` spans the i-th right singular direction with
/// length sigma[i]; dividing by sigma[i] (when > 0) recovers vᵢᵀ.
RowSpaceSvd gram_row_svd(const Matrix& a);

/// Allocation-free variant: Gram and eig scratch live in `ws`, and `out`
/// is reshaped in place, so repeated same-shape calls never touch the
/// heap. `a` must not alias workspace storage (it is read after scratch
/// matrices are written). `max_rank` caps how many singular directions are
/// materialized in u/w (sigma always holds all m values) — callers that
/// only consume a known prefix (FD keeps < ℓ of 2ℓ, PCA keeps k) skip the
/// eigenvector back-transformation and the Uᵀ·A GEMM for the rest.
void gram_row_svd(MatrixView a, Workspace& ws, RowSpaceSvd& out,
                  std::size_t max_rank = static_cast<std::size_t>(-1));

/// Recovers the top-k right singular vectors (k×d, orthonormal rows) from
/// a Σ·Vᵀ pair — descending `sigma` and `w` whose row i is sigma[i]·vᵢᵀ (a
/// RowSpaceSvd's or a SigmaVt's) — skipping directions with sigma below
/// `rank_tol` relative to sigma[0]. Returns fewer than k rows if the
/// numerical rank is smaller. The default tolerance reflects the Gram
/// trick's squared conditioning: singular values below ~√ε·σ₀ are
/// numerical noise. FD, the sketcher seam and PCA all normalize here.
Matrix right_vectors(std::span<const double> sigma, MatrixView w,
                     std::size_t k, double rank_tol = 1e-7);

/// Reconstructs u * diag(sigma) * vt — test helper.
Matrix svd_reconstruct(const ThinSvd& s);

/// The Σ·Vᵀ part of the SVD, for any orientation — exactly what the FD
/// shrink consumes. Row i of `w` equals sigma[i]·vᵢᵀ. Dispatches on shape:
/// short-fat matrices go through the m×m row Gram (gram_row_svd), tall
/// ones through the n×n column Gram — always the smaller eigenproblem.
struct SigmaVt {
  std::vector<double> sigma;  ///< all min(m, n) values, descending, >= 0
  Matrix w;                   ///< min(m, n, max_rank) × n, row i = sigma[i]·vᵢᵀ
};
SigmaVt sigma_vt_svd(const Matrix& a);

/// Allocation-free variant — the FD shrink entry point. The caller holds
/// one Workspace and one SigmaVt for the lifetime of the sketch; at steady
/// state (constant buffer shape) this performs zero heap allocations.
/// `max_rank` caps the rows of `w` (sigma always holds every value): the
/// FD shrink keeps at most ℓ−1 of its 2ℓ directions, so passing ℓ halves
/// the eigenvector back-transformation and W-forming work.
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
