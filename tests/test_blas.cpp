// Unit and property tests for the BLAS-like kernels. Property tests check
// algebraic identities on random matrices across a size sweep (TEST_P).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>

#include "linalg/blas.hpp"
#include "obs/metrics.hpp"
#include "parallel/thread_pool.hpp"
#include "rng/rng.hpp"
#include "util/check.hpp"

namespace arams::linalg {
namespace {

// The parallel GEMM path needs a pool with >= 2 workers. On single-core CI
// boxes hardware_concurrency() is 1, so force the pool size via env before
// anything touches parallel::shared_pool() (it is built lazily on the first
// above-threshold kernel call, well after static init). An externally set
// value wins (overwrite = 0).
const bool kPoolEnvForced = [] {
  ::setenv("ARAMS_POOL_THREADS", "4", /*overwrite=*/0);
  return true;
}();

Matrix random_matrix(std::size_t r, std::size_t c, Rng& rng) {
  Matrix m(r, c);
  for (std::size_t i = 0; i < r; ++i) {
    rng.fill_normal(m.row(i));
  }
  return m;
}

TEST(Blas, DotBasics) {
  const std::vector<double> x{1.0, 2.0, 3.0};
  const std::vector<double> y{4.0, -5.0, 6.0};
  EXPECT_DOUBLE_EQ(dot(x, y), 4.0 - 10.0 + 18.0);
}

TEST(Blas, AxpyAccumulates) {
  const std::vector<double> x{1.0, 2.0};
  std::vector<double> y{10.0, 20.0};
  axpy(0.5, x, y);
  EXPECT_DOUBLE_EQ(y[0], 10.5);
  EXPECT_DOUBLE_EQ(y[1], 21.0);
}

TEST(Blas, ScaleInPlace) {
  std::vector<double> x{2.0, -4.0};
  scale(x, 0.5);
  EXPECT_DOUBLE_EQ(x[0], 1.0);
  EXPECT_DOUBLE_EQ(x[1], -2.0);
}

TEST(Blas, NormsAgree) {
  const std::vector<double> x{3.0, 4.0};
  EXPECT_DOUBLE_EQ(norm2(x), 5.0);
  EXPECT_DOUBLE_EQ(norm2_squared(x), 25.0);
}

TEST(Blas, MatmulKnownValues) {
  const Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  const Matrix b{{5.0, 6.0}, {7.0, 8.0}};
  const Matrix c = matmul(a, b);
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(Blas, MatmulShapeMismatchThrows) {
  EXPECT_THROW(matmul(Matrix(2, 3), Matrix(2, 3)), CheckError);
}

TEST(Blas, GemvMatchesMatmul) {
  Rng rng(1);
  const Matrix a = random_matrix(6, 4, rng);
  Matrix x(4, 1);
  rng.fill_normal(x.row(0));  // column vector as 4x1 via transpose trick
  std::vector<double> xv(4);
  for (std::size_t i = 0; i < 4; ++i) xv[i] = x(i, 0);
  std::vector<double> y(6);
  gemv(a, xv, y);
  const Matrix ax = matmul(a, x);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_NEAR(y[i], ax(i, 0), 1e-12);
  }
}

TEST(Blas, GemvTransposedMatchesExplicitTranspose) {
  Rng rng(2);
  const Matrix a = random_matrix(5, 3, rng);
  std::vector<double> x(5);
  rng.fill_normal(x);
  std::vector<double> y(3);
  gemv_t(a, x, y);
  std::vector<double> expected(3);
  gemv(a.transposed(), x, expected);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(y[i], expected[i], 1e-12);
  }
}

TEST(Blas, FrobeniusNorm) {
  const Matrix a{{3.0, 0.0}, {0.0, 4.0}};
  EXPECT_DOUBLE_EQ(frobenius_norm(a), 5.0);
  EXPECT_DOUBLE_EQ(frobenius_norm_squared(a), 25.0);
}

/// Property sweep across shapes: transpose-product identities.
class BlasShapes
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(BlasShapes, MatmulTnMatchesExplicitTranspose) {
  const auto [m, k, n] = GetParam();
  Rng rng(static_cast<std::uint64_t>(m * 10007 + k * 101 + n));
  const Matrix a = random_matrix(k, m, rng);
  const Matrix b = random_matrix(k, n, rng);
  const Matrix fast = matmul_tn(a, b);
  const Matrix ref = matmul(a.transposed(), b);
  EXPECT_LT(Matrix::max_abs_diff(fast, ref), 1e-10);
}

TEST_P(BlasShapes, MatmulNtMatchesExplicitTranspose) {
  const auto [m, k, n] = GetParam();
  Rng rng(static_cast<std::uint64_t>(m * 7 + k * 11 + n * 13));
  const Matrix a = random_matrix(m, k, rng);
  const Matrix b = random_matrix(n, k, rng);
  const Matrix fast = matmul_nt(a, b);
  const Matrix ref = matmul(a, b.transposed());
  EXPECT_LT(Matrix::max_abs_diff(fast, ref), 1e-10);
}

TEST_P(BlasShapes, GramRowsMatchesProduct) {
  const auto [m, k, n] = GetParam();
  Rng rng(static_cast<std::uint64_t>(m + k + n));
  const Matrix a = random_matrix(m, k, rng);
  const Matrix g = gram_rows(a);
  const Matrix ref = matmul_nt(a, a);
  EXPECT_LT(Matrix::max_abs_diff(g, ref), 1e-10);
  // Symmetry.
  EXPECT_LT(Matrix::max_abs_diff(g, g.transposed()), 1e-12);
}

TEST_P(BlasShapes, GramColsMatchesProduct) {
  const auto [m, k, n] = GetParam();
  Rng rng(static_cast<std::uint64_t>(m * 3 + k * 5 + n * 7));
  const Matrix a = random_matrix(m, k, rng);
  const Matrix g = gram_cols(a);
  const Matrix ref = matmul_tn(a, a);
  EXPECT_LT(Matrix::max_abs_diff(g, ref), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BlasShapes,
    ::testing::Values(std::tuple{1, 1, 1}, std::tuple{2, 3, 4},
                      std::tuple{5, 5, 5}, std::tuple{7, 2, 9},
                      std::tuple{16, 33, 8}, std::tuple{40, 17, 25}));

// ---------------------------------------------------------------------------
// Tiled / packed kernels vs. a naive triple loop. The tiled code reorders
// the k-accumulation, so results are not bit-identical to the reference —
// the contract is <= 1e-12 *relative* Frobenius error.

Matrix naive_matmul(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      double s = 0.0;
      for (std::size_t p = 0; p < a.cols(); ++p) s += a(i, p) * b(p, j);
      c(i, j) = s;
    }
  }
  return c;
}

double relative_frobenius_error(const Matrix& got, const Matrix& want) {
  double num = 0.0;
  double den = 0.0;
  for (std::size_t i = 0; i < got.rows(); ++i) {
    for (std::size_t j = 0; j < got.cols(); ++j) {
      const double d = got(i, j) - want(i, j);
      num += d * d;
      den += want(i, j) * want(i, j);
    }
  }
  return den == 0.0 ? std::sqrt(num) : std::sqrt(num / den);
}

/// (m, k, n) shapes chosen to hit every tiling edge case: single element,
/// k spilling one KC panel (257), all dims straddling the MR=4 register
/// block (127/65), tall-thin and short-fat panels.
class TiledVsNaive
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(TiledVsNaive, Matmul) {
  const auto [m, k, n] = GetParam();
  Rng rng(static_cast<std::uint64_t>(m * 131071 + k * 8191 + n));
  const Matrix a = random_matrix(m, k, rng);
  const Matrix b = random_matrix(k, n, rng);
  EXPECT_LE(relative_frobenius_error(matmul(a, b), naive_matmul(a, b)),
            1e-12);
}

TEST_P(TiledVsNaive, MatmulTn) {
  const auto [m, k, n] = GetParam();
  Rng rng(static_cast<std::uint64_t>(m * 524287 + k * 127 + n));
  const Matrix a = random_matrix(k, m, rng);
  const Matrix b = random_matrix(k, n, rng);
  EXPECT_LE(relative_frobenius_error(matmul_tn(a, b),
                                     naive_matmul(a.transposed(), b)),
            1e-12);
}

TEST_P(TiledVsNaive, MatmulNt) {
  const auto [m, k, n] = GetParam();
  Rng rng(static_cast<std::uint64_t>(m * 8209 + k * 31 + n));
  const Matrix a = random_matrix(m, k, rng);
  const Matrix b = random_matrix(n, k, rng);
  EXPECT_LE(relative_frobenius_error(matmul_nt(a, b),
                                     naive_matmul(a, b.transposed())),
            1e-12);
}

TEST_P(TiledVsNaive, GramRows) {
  const auto [m, k, n] = GetParam();
  (void)n;
  Rng rng(static_cast<std::uint64_t>(m * 97 + k));
  const Matrix a = random_matrix(m, k, rng);
  EXPECT_LE(relative_frobenius_error(gram_rows(a),
                                     naive_matmul(a, a.transposed())),
            1e-12);
}

TEST_P(TiledVsNaive, GramCols) {
  const auto [m, k, n] = GetParam();
  (void)n;
  Rng rng(static_cast<std::uint64_t>(m * 193 + k * 3));
  const Matrix a = random_matrix(m, k, rng);
  EXPECT_LE(relative_frobenius_error(gram_cols(a),
                                     naive_matmul(a.transposed(), a)),
            1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    OddShapes, TiledVsNaive,
    ::testing::Values(std::tuple{1, 1, 1},        // degenerate single element
                      std::tuple{3, 257, 4},      // k spills one KC panel
                      std::tuple{127, 64, 65},    // dims straddle MR blocks
                      std::tuple{301, 7, 5},      // tall-thin
                      std::tuple{5, 7, 301}));    // short-fat

TEST(BlasParallel, LargeGemmDispatchesToPoolAndMatchesNaive) {
  ASSERT_TRUE(kPoolEnvForced);
  // 2·192³ ≈ 14.2 Mflop, above the 8 Mflop dispatch threshold.
  const std::size_t n = 192;
  Rng rng(4242);
  const Matrix a = random_matrix(n, n, rng);
  const Matrix b = random_matrix(n, n, rng);
  obs::Counter& dispatches =
      obs::metrics().counter("linalg.gemm_parallel_count");
  const long before = dispatches.value();
  const Matrix fast = matmul(a, b);
  ASSERT_GE(parallel::shared_pool().thread_count(), 2u)
      << "ARAMS_POOL_THREADS did not take effect";
  EXPECT_GT(dispatches.value(), before)
      << "above-threshold GEMM did not take the parallel path";
  EXPECT_LE(relative_frobenius_error(fast, naive_matmul(a, b)), 1e-12);
}

TEST(BlasParallel, LargeGramDispatchesToPoolAndMatchesNaive) {
  ASSERT_TRUE(kPoolEnvForced);
  // m²·d = 200²·250 = 10 Mflop, above the dispatch threshold.
  Rng rng(777);
  const Matrix a = random_matrix(200, 250, rng);
  obs::Counter& dispatches =
      obs::metrics().counter("linalg.gemm_parallel_count");
  const long before = dispatches.value();
  const Matrix g = gram_rows(a);
  EXPECT_GT(dispatches.value(), before);
  EXPECT_LE(relative_frobenius_error(g, naive_matmul(a, a.transposed())),
            1e-12);
  // Band-parallel Gram must stay exactly symmetric (mirrored, not recomputed).
  EXPECT_EQ(Matrix::max_abs_diff(g, g.transposed()), 0.0);
}

TEST(BlasParallel, BelowThresholdStaysSequential) {
  Rng rng(31);
  const Matrix a = random_matrix(16, 16, rng);
  const Matrix b = random_matrix(16, 16, rng);
  obs::Counter& dispatches =
      obs::metrics().counter("linalg.gemm_parallel_count");
  const long before = dispatches.value();
  const Matrix c = matmul(a, b);
  EXPECT_EQ(dispatches.value(), before);
  EXPECT_LE(relative_frobenius_error(c, naive_matmul(a, b)), 1e-12);
}

TEST(Blas, MatmulAssociativityProperty) {
  Rng rng(77);
  const Matrix a = random_matrix(4, 5, rng);
  const Matrix b = random_matrix(5, 6, rng);
  const Matrix c = random_matrix(6, 3, rng);
  const Matrix left = matmul(matmul(a, b), c);
  const Matrix right = matmul(a, matmul(b, c));
  EXPECT_LT(Matrix::max_abs_diff(left, right), 1e-10);
}

// ------------------------------------------ mixed-precision (fp32) lane

MatrixF narrow_matrix(const Matrix& m) {
  MatrixF out;
  narrow(m, out);
  return out;
}

Matrix widened(const MatrixF& m) {
  Matrix out;
  widen(m, out);
  return out;
}

TEST(BlasMixed, F32DotAndNormsTrackF64) {
  // The fp32 overloads accumulate in double but in a multi-accumulator
  // order, so against the widened-serial reference they agree to rounding,
  // not bitwise.
  Rng rng(41);
  const Matrix wide = random_matrix(2, 501, rng);  // odd length: tail path
  const MatrixF narrow = narrow_matrix(wide);
  const Matrix wide_back = widened(narrow);
  EXPECT_NEAR(dot(narrow.row(0), narrow.row(1)),
              dot(wide_back.row(0), wide_back.row(1)), 1e-10);
  EXPECT_NEAR(norm2_squared(narrow.row(0)), norm2_squared(wide_back.row(0)),
              1e-10);
  EXPECT_NEAR(norm2(narrow.row(0)), norm2(wide_back.row(0)), 1e-12);
}

TEST(BlasMixed, AxpyWidensExactly) {
  const std::vector<float> x{1.5F, -2.25F, 0.5F};
  std::vector<double> y{1.0, 2.0, 3.0};
  axpy(2.0, x, y);
  EXPECT_DOUBLE_EQ(y[0], 4.0);
  EXPECT_DOUBLE_EQ(y[1], -2.5);
  EXPECT_DOUBLE_EQ(y[2], 4.0);
}

// The lane's core guarantee: every mixed/fp32 GEMM widens its fp32 panels
// at pack time into the fp64 micro-kernel, so the result is bitwise
// identical to widening the operands up front and running the all-fp64
// kernel. Sizes straddle the blocked-kernel and tail paths.
class BlasMixedGemm : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BlasMixedGemm, MixedTnMatchesWidenedBitwise) {
  const std::size_t n = GetParam();
  Rng rng(43);
  const MatrixF a = narrow_matrix(random_matrix(n + 3, n, rng));
  const MatrixF b = narrow_matrix(random_matrix(n + 3, n + 1, rng));
  const Matrix a64 = widened(a);
  const Matrix b64 = widened(b);

  // Aᵀ(fp64)·B(fp32)
  const Matrix mixed = matmul_tn(MatrixView(a64), MatrixViewF(b));
  const Matrix reference = matmul_tn(a64, b64);
  ASSERT_EQ(mixed.rows(), reference.rows());
  EXPECT_EQ(Matrix::max_abs_diff(mixed, reference), 0.0) << "n=" << n;

  // Aᵀ(fp32)·B(fp32)
  const Matrix both = matmul_tn(MatrixViewF(a), MatrixViewF(b));
  EXPECT_EQ(Matrix::max_abs_diff(both, reference), 0.0) << "n=" << n;

  // A(fp32)·B(fp32) via the plain product
  const MatrixF bt = narrow_matrix(random_matrix(n, n + 1, rng));
  const Matrix prod = matmul(MatrixViewF(a), MatrixViewF(bt));
  EXPECT_EQ(Matrix::max_abs_diff(prod, matmul(a64, widened(bt))), 0.0)
      << "n=" << n;
}

INSTANTIATE_TEST_SUITE_P(SizeSweep, BlasMixedGemm,
                         ::testing::Values(3, 17, 64, 129));

TEST(BlasMixed, OutParameterReusesStorage) {
  Rng rng(44);
  const MatrixF a = narrow_matrix(random_matrix(20, 12, rng));
  const MatrixF b = narrow_matrix(random_matrix(20, 9, rng));
  Matrix out(40, 40);  // oversized: the kernel must grow-only reshape
  matmul_tn(MatrixViewF(a), MatrixViewF(b), out);
  EXPECT_EQ(out.rows(), 12u);
  EXPECT_EQ(out.cols(), 9u);
  EXPECT_EQ(Matrix::max_abs_diff(out, matmul_tn(widened(a), widened(b))),
            0.0);
}

}  // namespace
}  // namespace arams::linalg
