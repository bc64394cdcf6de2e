#pragma once
// Symmetric dense eigensolvers.
//
// The FD shrink step needs the full eigendecomposition of the 2ℓ×2ℓ Gram
// matrix B·Bᵀ on every shrink — the single hottest kernel on the sketch
// critical path now that the GEMM side is tiled. Two implementations with
// different roles:
//
//  * tridiag_eigen_symmetric — the production solver: blocked Householder
//    tridiagonalization (dsytrd-style panels whose rank-2k trailing updates
//    run through the packed GEMM core, so they inherit its tiling and
//    thread-pool parallelism), implicit Wilkinson-shift QL iteration with
//    deflation on the tridiagonal (dsteqr-style), and Householder
//    back-transformation of only the eigenvectors the caller keeps.
//    ~(4/3)n³ flops to tridiagonal + O(n³) QL accumulation, an order of
//    magnitude under Jacobi's per-sweep cost times 6–10 sweeps.
//  * jacobi_eigen_symmetric — cyclic threshold Jacobi, kept verbatim as the
//    verification reference and a runtime-selectable fallback.
//    Unconditionally stable and embarrassingly simple to audit; prefer it
//    when debugging a numerical anomaly (ARAMS_EIG_METHOD=jacobi flips the
//    whole process over without a rebuild).
//
// Callers go through eigen_symmetric(), which dispatches on
// EigenConfig::method / the ARAMS_EIG_METHOD environment variable and
// records the "linalg.eig_seconds" / "linalg.eig_iterations" metrics.

#include <cstddef>
#include <vector>

#include "linalg/matrix.hpp"

namespace arams::linalg {

struct SymmetricEig {
  std::vector<double> values;  ///< all n eigenvalues, descending
  /// Column k is the eigenvector of values[k]. n×min(n, max_vectors)
  /// columns; empty when EigenConfig::vectors is false.
  Matrix vectors;
  /// Convergence effort: Jacobi sweeps or implicit-QL shift iterations,
  /// depending on the method that produced this result.
  int iterations = 0;
};

class Workspace;

/// Which solver eigen_symmetric() runs.
enum class EigMethod {
  kAuto,     ///< ARAMS_EIG_METHOD env override ("jacobi"|"tridiag"), else tridiag
  kJacobi,   ///< cyclic Jacobi reference/fallback
  kTridiag,  ///< Householder tridiagonalization + implicit-shift QL
};

struct EigenConfig {
  EigMethod method = EigMethod::kAuto;
  /// false: eigenvalues only. The tridiagonal path then skips the rotation
  /// accumulation entirely (O(n²) QL instead of O(n³)).
  bool vectors = true;
  /// Form at most this many eigenvectors (top of the descending order).
  /// FD's shrink keeps at most ℓ−1 of 2ℓ directions, so capping here stops
  /// the back-transformation at the retained prefix.
  std::size_t max_vectors = static_cast<std::size_t>(-1);
  double jacobi_tol = 1e-12;  ///< Jacobi off-diagonal threshold
  int jacobi_max_sweeps = 50;
};

/// Full eigendecomposition of a symmetric matrix, dispatching on
/// `config.method` (kAuto consults ARAMS_EIG_METHOD per call, so tests and
/// the parity harness can flip methods at runtime). The input is validated
/// for squareness; mild asymmetry (roundoff from Gram products) is
/// symmetrized internally. Throws CheckError for empty input or (tridiag)
/// QL non-convergence. Allocation-free at steady state: all scratch lives
/// in `ws` and `out` reshapes in place.
void eigen_symmetric(MatrixView a, Workspace& ws, SymmetricEig& out,
                     const EigenConfig& config = {});

/// Allocating convenience wrapper.
SymmetricEig eigen_symmetric(const Matrix& a, const EigenConfig& config = {});

/// Production solver: blocked Householder tridiagonalization +
/// implicit-shift QL (+ prefix-limited back-transformation). Normally
/// reached through eigen_symmetric(); exposed for direct benchmarking and
/// cross-checking. Scratch lives in the wslot::kTrd* workspace slots.
void tridiag_eigen_symmetric(MatrixView a, Workspace& ws, SymmetricEig& out,
                             const EigenConfig& config = {});

/// Reference/fallback solver (cyclic threshold Jacobi). Quadratic per
/// sweep over n(n−1)/2 rotations; converges in a handful of sweeps at FD
/// sizes but does ~an order of magnitude more flops than the tridiagonal
/// path. Kept verbatim as the verification baseline.
SymmetricEig jacobi_eigen_symmetric(const Matrix& a, double tol = 1e-12,
                                    int max_sweeps = 50);

/// Allocation-free Jacobi variant: all scratch (rotation target,
/// eigenvector accumulator, sort permutation) lives in `ws` (slots
/// wslot::kEig*), and `out` is reshaped in place, so repeated same-shape
/// calls never touch the heap. `a` may alias a workspace matrix from a
/// *different* slot (it is copied into kEigWork before rotations start).
void jacobi_eigen_symmetric(MatrixView a, Workspace& ws, SymmetricEig& out,
                            double tol = 1e-12, int max_sweeps = 50);

}  // namespace arams::linalg
