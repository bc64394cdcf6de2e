#pragma once
// Norm computations and randomized estimators.
//
// covariance_error is the paper's sketch-quality metric ‖AᵀA − BᵀB‖₂. The
// d×d difference is never formed: a power iteration works through matvecs
// x ↦ Aᵀ(Ax) − Bᵀ(Bx), so the cost is O(iters · (nnz(A)+nnz(B))) and 2-MP
// image dimensions stay feasible.
//
// estimate_projection_residual is Algorithm 1's randomized Frobenius
// estimator: E‖(I − VᵀV)·Xᵀ·g‖² over Gaussian probes g equals
// ‖X − X·VᵀV‖²_F (rows of V orthonormal). The Bujanovic–Kressner analysis
// gives the tail bounds the paper cites.

#include <functional>

#include "linalg/matrix.hpp"
#include "rng/rng.hpp"

namespace arams::linalg {

/// Largest absolute eigenvalue of a symmetric operator given only its
/// matvec. `dim` is the operator order. Uses power iteration with a random
/// start; deterministic given `rng`.
double spectral_norm_sym(
    const std::function<void(std::span<const double>, std::span<double>)>&
        matvec,
    std::size_t dim, Rng& rng, int iters = 60);

/// Spectral norm of a general matrix via power iteration on AᵀA.
double spectral_norm(const Matrix& a, Rng& rng, int iters = 60);

/// ‖AᵀA − BᵀB‖₂ — the covariance (sketch) error. Column counts must match.
double covariance_error(const Matrix& a, const Matrix& b, Rng& rng,
                        int iters = 60);

/// covariance_error normalized by ‖A‖²_F, the scale-free form used when
/// comparing across datasets.
double covariance_error_relative(const Matrix& a, const Matrix& b, Rng& rng,
                                 int iters = 60);

/// ‖X − X·VᵀV‖²_F computed exactly (rows of `v` must be orthonormal,
/// spanning the retained subspace). O(n·d·k); used by tests as ground truth.
double projection_residual_exact(const Matrix& x, const Matrix& v);

/// As above with ‖X‖²_F already known (`x_norm_sq`, as frobenius_norm_squared
/// returns it) — for callers that also need it as a denominator.
double projection_residual_exact(const Matrix& x, const Matrix& v,
                                 double x_norm_sq);

/// Randomized estimate of projection_residual_exact using `probes` Gaussian
/// probe vectors (Algorithm 1 of the paper). Unbiased; relative accuracy
/// improves roughly 10% per 10 probes as reported in the paper.
double estimate_projection_residual(const Matrix& x, const Matrix& v,
                                    int probes, Rng& rng);

}  // namespace arams::linalg
