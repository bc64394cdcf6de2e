// PCA projection from a sketch.

#include <gtest/gtest.h>

#include <cmath>

#include "core/fd.hpp"
#include "data/synthetic.hpp"
#include "embed/pca.hpp"
#include "linalg/blas.hpp"
#include "linalg/norms.hpp"
#include "linalg/qr.hpp"
#include "linalg/svd.hpp"
#include "rng/rng.hpp"
#include "util/check.hpp"

namespace arams::embed {
namespace {

using linalg::Matrix;

TEST(Pca, EmptySketchThrows) {
  EXPECT_THROW(PcaProjector(Matrix(), 2), CheckError);
}

TEST(Pca, ZeroComponentsThrows) {
  EXPECT_THROW(PcaProjector(Matrix(2, 3), 0), CheckError);
}

TEST(Pca, BasisIsOrthonormal) {
  Rng rng(1);
  Matrix sketch(6, 20);
  for (std::size_t i = 0; i < 6; ++i) rng.fill_normal(sketch.row(i));
  const PcaProjector pca(sketch, 4);
  EXPECT_EQ(pca.components(), 4u);
  EXPECT_EQ(pca.dim(), 20u);
  EXPECT_LT(linalg::orthonormality_defect(pca.basis().transposed()), 1e-8);
}

TEST(Pca, ComponentCountCappedByRank) {
  // Rank-2 sketch: asking for 5 components returns 2.
  Matrix sketch(4, 10);
  Rng rng(2);
  std::vector<double> u(10), v(10);
  rng.fill_normal(u);
  rng.fill_normal(v);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 10; ++j) {
      sketch(i, j) = static_cast<double>(i + 1) * u[j] +
                     static_cast<double>(4 - i) * v[j];
    }
  }
  const PcaProjector pca(sketch, 5);
  EXPECT_EQ(pca.components(), 2u);
}

TEST(Pca, ProjectionDimensionMismatchThrows) {
  Rng rng(3);
  Matrix sketch(3, 8);
  for (std::size_t i = 0; i < 3; ++i) rng.fill_normal(sketch.row(i));
  const PcaProjector pca(sketch, 2);
  EXPECT_THROW(pca.project(Matrix(5, 7)), CheckError);
}

TEST(Pca, ProjectionRecoversLowRankData) {
  // Data in a 3-D subspace: 3-component PCA from a sketch must reconstruct
  // it nearly exactly.
  data::SyntheticConfig config;
  config.n = 120;
  config.d = 30;
  config.spectrum.kind = data::DecayKind::kStep;
  config.spectrum.count = 3;
  config.spectrum.step_rank = 3;
  config.spectrum.step_floor = 0.0;
  Rng rng(4);
  const Matrix a = data::make_low_rank(config, rng);

  core::FrequentDirections fd(core::FdConfig{8, true});
  fd.append_batch(a);
  fd.compress();
  const PcaProjector pca(fd.sketch(), 3);
  const Matrix z = pca.project(a);
  EXPECT_EQ(z.rows(), 120u);
  EXPECT_EQ(z.cols(), 3u);
  const Matrix back = pca.reconstruct(z);
  EXPECT_LT(Matrix::max_abs_diff(back, a), 1e-6);
}

TEST(Pca, CapturedVarianceDominates) {
  data::SyntheticConfig config;
  config.n = 200;
  config.d = 40;
  config.spectrum.kind = data::DecayKind::kExponential;
  config.spectrum.count = 20;
  config.spectrum.rate = 0.4;
  Rng rng(5);
  const Matrix a = data::make_low_rank(config, rng);

  core::FrequentDirections fd(core::FdConfig{12, true});
  fd.append_batch(a);
  fd.compress();
  const PcaProjector pca(fd.sketch(), 6);
  const double residual = linalg::projection_residual_exact(a, pca.basis());
  EXPECT_LT(residual, 0.05 * linalg::frobenius_norm_squared(a));
}

TEST(Pca, TallSketchPathWorks) {
  // rows > cols exercises the jacobi_svd branch.
  Rng rng(6);
  Matrix sketch(20, 6);
  for (std::size_t i = 0; i < 20; ++i) rng.fill_normal(sketch.row(i));
  const PcaProjector pca(sketch, 3);
  EXPECT_EQ(pca.components(), 3u);
  EXPECT_LT(linalg::orthonormality_defect(pca.basis().transposed()), 1e-8);
}

TEST(Pca, TallBranchIsJacobi) {
  // UMAP's PCA init projects the tall n×15 latent; its layout bits rest on
  // the tall branch being exactly jacobi_svd's leading right vectors.
  Rng rng(8);
  Matrix latent(60, 15);
  for (std::size_t i = 0; i < latent.rows(); ++i) {
    rng.fill_normal(latent.row(i));
  }
  const PcaProjector pca(latent, 2);
  const linalg::ThinSvd ref = linalg::jacobi_svd(latent);
  ASSERT_EQ(pca.components(), 2u);
  EXPECT_EQ(Matrix::max_abs_diff(pca.basis(), ref.vt.slice_rows(0, 2)), 0.0);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(pca.singular_values()[i], ref.sigma[i]);
  }
}

TEST(Pca, SingularValuesDescend) {
  Rng rng(7);
  Matrix sketch(8, 16);
  for (std::size_t i = 0; i < 8; ++i) rng.fill_normal(sketch.row(i));
  const PcaProjector pca(sketch, 5);
  const auto& sv = pca.singular_values();
  ASSERT_EQ(sv.size(), pca.components());
  for (std::size_t i = 1; i < sv.size(); ++i) {
    EXPECT_GE(sv[i - 1], sv[i]);
  }
}

}  // namespace
}  // namespace arams::embed
