#include "linalg/norms.hpp"

#include <cmath>
#include <vector>

#include "linalg/blas.hpp"

namespace arams::linalg {

double spectral_norm_sym(
    const std::function<void(std::span<const double>, std::span<double>)>&
        matvec,
    std::size_t dim, Rng& rng, int iters) {
  ARAMS_CHECK(dim > 0, "spectral_norm_sym needs dim > 0");
  std::vector<double> x(dim);
  std::vector<double> y(dim);
  rng.fill_normal(x);
  double nrm = norm2(x);
  if (nrm == 0.0) {
    x[0] = 1.0;
    nrm = 1.0;
  }
  scale(x, 1.0 / nrm);

  double lambda = 0.0;
  for (int it = 0; it < iters; ++it) {
    matvec(x, y);
    // For a symmetric operator the Rayleigh quotient xᵀ(Mx) tracks the
    // dominant eigenvalue; |·| covers negative-dominant spectra.
    lambda = dot(x, y);
    const double ynorm = norm2(y);
    if (ynorm == 0.0) return 0.0;  // operator annihilated the iterate
    for (std::size_t i = 0; i < dim; ++i) {
      x[i] = y[i] / ynorm;
    }
    // |lambda| converges to ‖M‖₂ when the dominant eigenvalue dominates in
    // magnitude; the final ynorm is the safer estimate, keep the max.
    lambda = std::max(std::abs(lambda), ynorm);
  }
  return std::abs(lambda);
}

double spectral_norm(const Matrix& a, Rng& rng, int iters) {
  const std::size_t d = a.cols();
  std::vector<double> tmp(a.rows());
  const auto matvec = [&](std::span<const double> x, std::span<double> y) {
    gemv(a, x, tmp);
    gemv_t(a, tmp, y);
  };
  const double lam = spectral_norm_sym(matvec, d, rng, iters);
  return std::sqrt(std::max(lam, 0.0));
}

double covariance_error(const Matrix& a, const Matrix& b, Rng& rng,
                        int iters) {
  ARAMS_CHECK(a.cols() == b.cols(), "covariance_error column mismatch");
  const std::size_t d = a.cols();
  std::vector<double> ta(a.rows());
  std::vector<double> tb(b.rows());
  std::vector<double> yb(d);
  const auto matvec = [&](std::span<const double> x, std::span<double> y) {
    gemv(a, x, ta);
    gemv_t(a, ta, y);
    gemv(b, x, tb);
    gemv_t(b, tb, yb);
    for (std::size_t i = 0; i < d; ++i) {
      y[i] -= yb[i];
    }
  };
  return spectral_norm_sym(matvec, d, rng, iters);
}

double covariance_error_relative(const Matrix& a, const Matrix& b, Rng& rng,
                                 int iters) {
  const double denom = frobenius_norm_squared(a);
  ARAMS_CHECK(denom > 0.0, "relative error of a zero matrix");
  return covariance_error(a, b, rng, iters) / denom;
}

double projection_residual_exact(const Matrix& x, const Matrix& v) {
  return projection_residual_exact(x, v, frobenius_norm_squared(x));
}

double projection_residual_exact(const Matrix& x, const Matrix& v,
                                 double x_norm_sq) {
  ARAMS_CHECK(v.cols() == x.cols(), "projection basis dimension mismatch");
  // ‖X − XVᵀV‖²_F = ‖X‖²_F − ‖XVᵀ‖²_F for orthonormal rows of V.
  const Matrix coeff = matmul_nt(x, v);  // n×k
  const double captured = frobenius_norm_squared(coeff);
  return std::max(x_norm_sq - captured, 0.0);
}

double estimate_projection_residual(const Matrix& x, const Matrix& v,
                                    int probes, Rng& rng) {
  ARAMS_CHECK(probes > 0, "need at least one probe");
  ARAMS_CHECK(v.cols() == x.cols(), "projection basis dimension mismatch");
  const std::size_t n = x.rows();
  const std::size_t d = x.cols();
  const std::size_t k = v.rows();

  std::vector<double> g(n);
  std::vector<double> y(d);
  std::vector<double> c(k);
  std::vector<double> yhat(d);

  double acc = 0.0;
  for (int p = 0; p < probes; ++p) {
    rng.fill_normal(g);
    // y = Xᵀ g — random combination of the batch rows.
    gemv_t(x, g, y);
    // yhat = Vᵀ (V y) — projection onto the retained subspace.
    gemv(v, y, c);
    gemv_t(v, c, yhat);
    double r = 0.0;
    for (std::size_t i = 0; i < d; ++i) {
      const double diff = y[i] - yhat[i];
      r += diff * diff;
    }
    acc += r;
  }
  return acc / probes;
}

}  // namespace arams::linalg
