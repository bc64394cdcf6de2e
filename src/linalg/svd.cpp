#include "linalg/svd.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "linalg/blas.hpp"
#include "linalg/eigen_sym.hpp"
#include "linalg/qr.hpp"
#include "linalg/workspace.hpp"

namespace arams::linalg {

namespace {

/// One-sided Jacobi on a tall (m>=n) matrix: rotates column pairs of `u`
/// until all pairs are orthogonal, accumulating rotations into `v` (n×n).
void hestenes_sweeps(Matrix& u, Matrix& v, double tol, int max_sweeps) {
  const std::size_t n = u.cols();
  // Work on the transpose so columns of u are contiguous rows here.
  Matrix ut = u.transposed();
  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    bool rotated = false;
    for (std::size_t p = 0; p < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        auto cp = ut.row(p);
        auto cq = ut.row(q);
        const double alpha = norm2_squared(cp);
        const double beta = norm2_squared(cq);
        const double gamma = dot(cp, cq);
        if (std::abs(gamma) <= tol * std::sqrt(alpha * beta) ||
            alpha == 0.0 || beta == 0.0) {
          continue;
        }
        rotated = true;
        const double zeta = (beta - alpha) / (2.0 * gamma);
        const double t = (zeta >= 0.0 ? 1.0 : -1.0) /
                         (std::abs(zeta) + std::sqrt(1.0 + zeta * zeta));
        const double c = 1.0 / std::sqrt(1.0 + t * t);
        const double s = c * t;
        for (std::size_t i = 0; i < cp.size(); ++i) {
          const double up = cp[i];
          const double uq = cq[i];
          cp[i] = c * up - s * uq;
          cq[i] = s * up + c * uq;
        }
        for (std::size_t i = 0; i < n; ++i) {
          const double vp = v(i, p);
          const double vq = v(i, q);
          v(i, p) = c * vp - s * vq;
          v(i, q) = s * vp + c * vq;
        }
      }
    }
    if (!rotated) break;
  }
  u = ut.transposed();
}

}  // namespace

ThinSvd jacobi_svd(const Matrix& a, double tol, int max_sweeps) {
  ARAMS_CHECK(a.rows() > 0 && a.cols() > 0, "svd of empty matrix");
  const bool transposed = a.rows() < a.cols();
  Matrix work = transposed ? a.transposed() : a;
  const std::size_t m = work.rows(), n = work.cols();

  Matrix v = Matrix::identity(n);
  hestenes_sweeps(work, v, tol, max_sweeps);

  // Column norms are the singular values.
  std::vector<double> sigma(n);
  Matrix wt = work.transposed();  // n×m, row j = column j of work
  for (std::size_t j = 0; j < n; ++j) {
    sigma[j] = norm2(wt.row(j));
  }
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t x, std::size_t y) { return sigma[x] > sigma[y]; });

  ThinSvd out;
  out.sigma.resize(n);
  Matrix u(m, n);
  Matrix vt(n, n);
  const double smax = sigma.empty() ? 0.0 : sigma[order[0]];
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t j = order[k];
    out.sigma[k] = sigma[j];
    const auto col = wt.row(j);
    if (sigma[j] > smax * 1e-300 && sigma[j] > 0.0) {
      for (std::size_t i = 0; i < m; ++i) {
        u(i, k) = col[i] / sigma[j];
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      vt(k, i) = v(i, j);
    }
  }

  if (transposed) {
    // a = (workᵀ) = (U Σ Vᵀ)ᵀ = V Σ Uᵀ.
    out.u = vt.transposed();
    out.vt = u.transposed();
  } else {
    out.u = std::move(u);
    out.vt = std::move(vt);
  }
  return out;
}

Matrix right_vectors(std::span<const double> sigma, MatrixView w,
                     std::size_t k, double rank_tol) {
  k = std::min({k, w.rows(), sigma.size()});
  const double smax = sigma.empty() ? 0.0 : sigma[0];
  std::size_t kept = 0;
  for (std::size_t i = 0; i < k; ++i) {
    if (sigma[i] > rank_tol * smax && sigma[i] > 0.0) {
      ++kept;
    }
  }
  Matrix vt(kept, w.cols());
  for (std::size_t i = 0; i < kept; ++i) {
    const auto wi = w.row(i);
    auto vi = vt.row(i);
    const double inv = 1.0 / sigma[i];
    for (std::size_t j = 0; j < wi.size(); ++j) {
      vi[j] = wi[j] * inv;
    }
  }
  return vt;
}

void sigma_vt_svd(MatrixView a, Workspace& ws, SigmaVt& out,
                  std::size_t max_rank) {
  ARAMS_CHECK(a.rows() > 0 && a.cols() > 0, "svd of empty matrix");
  if (a.rows() <= a.cols()) {
    // Short-fat: m×m row Gram, then W = Uᵀ·A — no U copy kept.
    const std::size_t m = a.rows();
    Matrix& g = ws.mat(wslot::kSvdGram, m, m);
    gram_rows(a, g);
    SymmetricEig& eig = ws.eig();
    EigenConfig cfg;
    cfg.max_vectors = max_rank;
    eigen_symmetric(g, ws, eig, cfg);
    out.sigma.resize(m);
    for (std::size_t i = 0; i < m; ++i) {
      out.sigma[i] = std::sqrt(std::max(eig.values[i], 0.0));
    }
    matmul_tn(eig.vectors, a, out.w);
    ws.publish();
    return;
  }
  // Tall: eigendecompose the n×n column Gram AᵀA = V diag(σ²) Vᵀ and form
  // W = Σ·Vᵀ directly — no left factor needed.
  const std::size_t n = a.cols();
  Matrix& g = ws.mat(wslot::kSvdGram, n, n);
  gram_cols(a, g);
  SymmetricEig& eig = ws.eig();
  EigenConfig cfg;
  cfg.max_vectors = max_rank;
  eigen_symmetric(g, ws, eig, cfg);
  const std::size_t kept = std::min(n, max_rank);
  out.sigma.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.sigma[i] = std::sqrt(std::max(eig.values[i], 0.0));
  }
  out.w.reshape(kept, n);
  for (std::size_t i = 0; i < kept; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      out.w(i, j) = out.sigma[i] * eig.vectors(j, i);
    }
  }
  ws.publish();
}

SigmaVt sigma_vt_svd(const Matrix& a) {
  Workspace ws;
  SigmaVt out;
  sigma_vt_svd(MatrixView(a), ws, out);
  return out;
}

ThinSvd randomized_svd(const Matrix& a, std::size_t k, Rng& rng,
                       std::size_t oversample, int power_iters) {
  ARAMS_CHECK(a.rows() > 0 && a.cols() > 0, "svd of empty matrix");
  ARAMS_CHECK(k >= 1, "need at least one component");
  const std::size_t n = a.rows();
  const std::size_t d = a.cols();
  const std::size_t sketch =
      std::min(k + oversample, std::min(n, d));

  // Y = A·G, then optional subspace iterations Y ← A·(Aᵀ·Y) with
  // re-orthonormalization for stability.
  Matrix g(d, sketch);
  for (std::size_t i = 0; i < d; ++i) {
    rng.fill_normal(g.row(i));
  }
  Matrix y = matmul(a, g);  // n×sketch
  orthonormalize_columns(y);
  for (int it = 0; it < power_iters; ++it) {
    Matrix z = matmul_tn(a, y);  // d×sketch
    orthonormalize_columns(z);
    y = matmul(a, z);
    orthonormalize_columns(y);
  }

  // Project: B = Qᵀ·A is sketch×d; exact SVD of the small factor.
  const Matrix b = matmul_tn(y, a);
  const ThinSvd small = jacobi_svd(b);

  ThinSvd out;
  const std::size_t kept = std::min(k, small.sigma.size());
  out.sigma.assign(small.sigma.begin(),
                   small.sigma.begin() + static_cast<std::ptrdiff_t>(kept));
  // U = Q·U_small, truncated to k columns.
  const Matrix u_full = matmul(y, small.u);
  out.u = Matrix(n, kept);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < kept; ++j) {
      out.u(i, j) = u_full(i, j);
    }
  }
  out.vt = small.vt.slice_rows(0, kept);
  return out;
}

Matrix svd_reconstruct(const ThinSvd& s) {
  Matrix us = s.u;
  for (std::size_t i = 0; i < us.rows(); ++i) {
    auto row = us.row(i);
    for (std::size_t j = 0; j < row.size(); ++j) {
      row[j] *= s.sigma[j];
    }
  }
  return matmul(us, s.vt);
}

}  // namespace arams::linalg
