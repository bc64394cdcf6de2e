// Tests for the Jacobi SVD and the Gram-trick Σ·Vᵀ SVD (sigma_vt_svd, the
// FD shrink's and PCA's production kernel) on short-fat and tall shapes.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "data/synthetic.hpp"
#include "linalg/blas.hpp"
#include "linalg/qr.hpp"
#include "linalg/svd.hpp"
#include "rng/rng.hpp"
#include "util/check.hpp"

namespace arams::linalg {
namespace {

Matrix random_matrix(std::size_t r, std::size_t c, Rng& rng) {
  Matrix m(r, c);
  for (std::size_t i = 0; i < r; ++i) {
    rng.fill_normal(m.row(i));
  }
  return m;
}

TEST(JacobiSvd, DiagonalKnownValues) {
  const Matrix a{{3.0, 0.0}, {0.0, -4.0}};
  const ThinSvd svd = jacobi_svd(a);
  EXPECT_NEAR(svd.sigma[0], 4.0, 1e-12);
  EXPECT_NEAR(svd.sigma[1], 3.0, 1e-12);
}

TEST(JacobiSvd, EmptyThrows) { EXPECT_THROW(jacobi_svd(Matrix()), CheckError); }

class SvdShapes : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(SvdShapes, Reconstructs) {
  const auto [m, n] = GetParam();
  Rng rng(static_cast<std::uint64_t>(m * 211 + n));
  const Matrix a = random_matrix(static_cast<std::size_t>(m),
                                 static_cast<std::size_t>(n), rng);
  const ThinSvd svd = jacobi_svd(a);
  const Matrix back = svd_reconstruct(svd);
  EXPECT_LT(Matrix::max_abs_diff(back, a),
            1e-9 * std::max(1.0, frobenius_norm(a)));
}

TEST_P(SvdShapes, FactorsOrthonormal) {
  const auto [m, n] = GetParam();
  Rng rng(static_cast<std::uint64_t>(m * 5 + n * 3));
  const Matrix a = random_matrix(static_cast<std::size_t>(m),
                                 static_cast<std::size_t>(n), rng);
  const ThinSvd svd = jacobi_svd(a);
  EXPECT_LT(orthonormality_defect(svd.u), 1e-8);
  EXPECT_LT(orthonormality_defect(svd.vt.transposed()), 1e-8);
}

TEST_P(SvdShapes, SigmaDescendingNonNegative) {
  const auto [m, n] = GetParam();
  Rng rng(static_cast<std::uint64_t>(m + n * 19));
  const Matrix a = random_matrix(static_cast<std::size_t>(m),
                                 static_cast<std::size_t>(n), rng);
  const ThinSvd svd = jacobi_svd(a);
  for (std::size_t i = 0; i < svd.sigma.size(); ++i) {
    EXPECT_GE(svd.sigma[i], 0.0);
    if (i > 0) {
      EXPECT_GE(svd.sigma[i - 1], svd.sigma[i]);
    }
  }
}

TEST_P(SvdShapes, FrobeniusMassMatchesSigma) {
  const auto [m, n] = GetParam();
  Rng rng(static_cast<std::uint64_t>(m * 3 + n * 23));
  const Matrix a = random_matrix(static_cast<std::size_t>(m),
                                 static_cast<std::size_t>(n), rng);
  const ThinSvd svd = jacobi_svd(a);
  double s2 = 0.0;
  for (const double s : svd.sigma) s2 += s * s;
  EXPECT_NEAR(s2, frobenius_norm_squared(a), 1e-8 * std::max(1.0, s2));
}

INSTANTIATE_TEST_SUITE_P(Shapes, SvdShapes,
                         ::testing::Values(std::pair{1, 1}, std::pair{4, 4},
                                           std::pair{10, 3}, std::pair{3, 10},
                                           std::pair{20, 20},
                                           std::pair{8, 40},
                                           std::pair{40, 8}));

class GramSvdShapes : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(GramSvdShapes, MatchesJacobiSigma) {
  const auto [m, n] = GetParam();
  Rng rng(static_cast<std::uint64_t>(m * 71 + n));
  const Matrix a = random_matrix(static_cast<std::size_t>(m),
                                 static_cast<std::size_t>(n), rng);
  const SigmaVt gram = sigma_vt_svd(a);
  const ThinSvd ref = jacobi_svd(a);
  ASSERT_EQ(gram.sigma.size(), static_cast<std::size_t>(std::min(m, n)));
  for (std::size_t i = 0; i < gram.sigma.size(); ++i) {
    EXPECT_NEAR(gram.sigma[i], ref.sigma[i],
                1e-7 * std::max(1.0, ref.sigma[0]));
  }
}

TEST_P(GramSvdShapes, WRowsReconstructInput) {
  const auto [m, n] = GetParam();
  Rng rng(static_cast<std::uint64_t>(m * 73 + n));
  const Matrix a = random_matrix(static_cast<std::size_t>(m),
                                 static_cast<std::size_t>(n), rng);
  const SigmaVt gram = sigma_vt_svd(a);
  // The rows of W span A's row space: projecting A onto them (A·Vᵀ·V with
  // V = W normalized row by row) gives A back.
  const Matrix vt = right_vectors(gram.sigma, gram.w, gram.w.rows());
  ASSERT_EQ(vt.rows(), static_cast<std::size_t>(std::min(m, n)));
  const Matrix back = matmul(matmul_nt(a, vt), vt);
  EXPECT_LT(Matrix::max_abs_diff(back, a), 1e-9 * std::max(1.0, frobenius_norm(a)));
}

TEST_P(GramSvdShapes, WRowsMutuallyOrthogonal) {
  const auto [m, n] = GetParam();
  Rng rng(static_cast<std::uint64_t>(m * 79 + n));
  const Matrix a = random_matrix(static_cast<std::size_t>(m),
                                 static_cast<std::size_t>(n), rng);
  const SigmaVt gram = sigma_vt_svd(a);
  // Row i has norm sigma[i]; distinct rows are orthogonal.
  for (std::size_t i = 0; i < gram.w.rows(); ++i) {
    EXPECT_NEAR(norm2(gram.w.row(i)), gram.sigma[i],
                1e-7 * std::max(1.0, gram.sigma[0]));
    for (std::size_t j = i + 1; j < gram.w.rows(); ++j) {
      EXPECT_NEAR(dot(gram.w.row(i), gram.w.row(j)), 0.0,
                  1e-6 * std::max(1.0, gram.sigma[0] * gram.sigma[0]));
    }
  }
}

// Short-fat shapes take the row-Gram branch, tall ones the column-Gram
// branch.
INSTANTIATE_TEST_SUITE_P(Shapes, GramSvdShapes,
                         ::testing::Values(std::pair{1, 4}, std::pair{2, 10},
                                           std::pair{8, 8}, std::pair{10, 50},
                                           std::pair{32, 100},
                                           std::pair{50, 10},
                                           std::pair{100, 32}));

TEST(RightVectors, OrthonormalRows) {
  Rng rng(91);
  const Matrix a = random_matrix(6, 30, rng);
  const SigmaVt gram = sigma_vt_svd(a);
  const Matrix vt = right_vectors(gram.sigma, gram.w, 4);
  ASSERT_EQ(vt.rows(), 4u);
  EXPECT_LT(orthonormality_defect(vt.transposed()), 1e-8);
}

TEST(RightVectors, SkipsNumericallyZeroDirections) {
  // Rank-1 input: only one right vector should be returned.
  Matrix a(3, 8);
  Rng rng(93);
  std::vector<double> base(8);
  rng.fill_normal(base);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 8; ++j) {
      a(i, j) = static_cast<double>(i + 1) * base[j];
    }
  }
  const SigmaVt gram = sigma_vt_svd(a);
  const Matrix vt = right_vectors(gram.sigma, gram.w, 3);
  EXPECT_EQ(vt.rows(), 1u);
}

TEST(RandomizedSvd, MatchesExactOnDecayingSpectrum) {
  data::SyntheticConfig config;
  config.n = 80;
  config.d = 40;
  config.spectrum.kind = data::DecayKind::kExponential;
  config.spectrum.count = 20;
  config.spectrum.rate = 0.4;
  Rng rng(201);
  const Matrix a = data::make_low_rank(config, rng);
  const ThinSvd exact = jacobi_svd(a);
  Rng rsvd_rng(202);
  const ThinSvd approx = randomized_svd(a, 6, rsvd_rng);
  ASSERT_EQ(approx.sigma.size(), 6u);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_NEAR(approx.sigma[i], exact.sigma[i], 1e-6 * exact.sigma[0]);
  }
}

TEST(RandomizedSvd, FactorsOrthonormal) {
  Rng rng(203);
  const Matrix a = random_matrix(60, 30, rng);
  Rng rsvd_rng(204);
  const ThinSvd svd = randomized_svd(a, 8, rsvd_rng);
  EXPECT_LT(orthonormality_defect(svd.u), 1e-8);
  EXPECT_LT(orthonormality_defect(svd.vt.transposed()), 1e-8);
}

TEST(RandomizedSvd, LowRankReconstructionNearOptimal) {
  data::SyntheticConfig config;
  config.n = 100;
  config.d = 50;
  config.spectrum.kind = data::DecayKind::kStep;
  config.spectrum.count = 5;
  config.spectrum.step_rank = 5;
  config.spectrum.step_floor = 0.0;
  Rng rng(205);
  const Matrix a = data::make_low_rank(config, rng);
  Rng rsvd_rng(206);
  const ThinSvd svd = randomized_svd(a, 5, rsvd_rng);
  const Matrix back = svd_reconstruct(svd);
  EXPECT_LT(Matrix::max_abs_diff(back, a), 1e-7);
}

TEST(RandomizedSvd, KCappedByDimensions) {
  Rng rng(207);
  const Matrix a = random_matrix(10, 4, rng);
  Rng rsvd_rng(208);
  const ThinSvd svd = randomized_svd(a, 20, rsvd_rng);
  EXPECT_LE(svd.sigma.size(), 4u);
}

TEST(RandomizedSvd, ValidatesArguments) {
  Rng rng(209);
  EXPECT_THROW(randomized_svd(Matrix(), 2, rng), CheckError);
  EXPECT_THROW(randomized_svd(Matrix(3, 3), 0, rng), CheckError);
}

TEST(GramRowSvd, LowRankPlusTinyTailIsStable) {
  // Gram trick squares the condition number; verify small singular values
  // are clamped to zero rather than NaN.
  Matrix a(4, 12);
  Rng rng(95);
  std::vector<double> base(12);
  rng.fill_normal(base);
  for (std::size_t j = 0; j < 12; ++j) {
    a(0, j) = base[j];
    a(1, j) = base[j] * (1.0 + 1e-13);
    a(2, j) = -base[j];
    a(3, j) = 2.0 * base[j];
  }
  const SigmaVt gram = sigma_vt_svd(a);
  for (const double s : gram.sigma) {
    EXPECT_FALSE(std::isnan(s));
    EXPECT_GE(s, 0.0);
  }
}

}  // namespace
}  // namespace arams::linalg
