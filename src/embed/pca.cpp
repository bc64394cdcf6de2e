#include "embed/pca.hpp"

#include "linalg/blas.hpp"
#include "linalg/svd.hpp"
#include "linalg/workspace.hpp"
#include "util/check.hpp"

namespace arams::embed {

using linalg::Matrix;

PcaProjector::PcaProjector(const Matrix& sketch, std::size_t k) {
  linalg::Workspace ws;
  init(sketch, k, ws);
}

PcaProjector::PcaProjector(const Matrix& sketch, std::size_t k,
                           linalg::Workspace& ws) {
  init(sketch, k, ws);
}

void PcaProjector::init(const Matrix& sketch, std::size_t k,
                        linalg::Workspace& ws) {
  ARAMS_CHECK(sketch.rows() > 0 && sketch.cols() > 0,
              "cannot build PCA from an empty sketch");
  ARAMS_CHECK(k > 0, "need at least one component");
  if (sketch.rows() <= sketch.cols()) {
    // Sketch rows never exceed ℓ here, so the row-Gram trick applies; the
    // workspace's reusable SigmaVt keeps repeated rebuilds (one per monitor
    // snapshot) off the heap, and max_rank=k stops the eigenvector
    // back-transformation at the components we keep.
    linalg::SigmaVt& svd = ws.svd();
    linalg::sigma_vt_svd(linalg::MatrixView(sketch), ws, svd, k);
    basis_ = linalg::right_vectors(svd.sigma, svd.w, k);
    sigma_.assign(svd.sigma.begin(),
                  svd.sigma.begin() +
                      static_cast<std::ptrdiff_t>(basis_.rows()));
  } else {
    // Jacobi, not the column Gram: UMAP's PCA init projects the tall n×15
    // latent here, and the Gram path moves its trustworthiness bits.
    const linalg::ThinSvd svd = linalg::jacobi_svd(sketch);
    const std::size_t kept = std::min(k, svd.vt.rows());
    basis_ = svd.vt.slice_rows(0, kept);
    sigma_.assign(svd.sigma.begin(),
                  svd.sigma.begin() + static_cast<std::ptrdiff_t>(kept));
  }
  ARAMS_CHECK(basis_.rows() > 0, "sketch had numerical rank zero");
}

Matrix PcaProjector::project(const Matrix& x) const {
  ARAMS_CHECK(x.cols() == basis_.cols(), "data dimension mismatch");
  return linalg::matmul_nt(x, basis_);
}

Matrix PcaProjector::reconstruct(const Matrix& z) const {
  ARAMS_CHECK(z.cols() == basis_.rows(), "latent dimension mismatch");
  return linalg::matmul(z, basis_);
}

}  // namespace arams::embed
