// Baseline sketchers: unbiasedness of the random methods, iSVD behaviour
// (including the adversarial stream FD survives and iSVD does not), and
// the factory.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>

#include "core/baselines.hpp"
#include "core/fd.hpp"
#include "data/synthetic.hpp"
#include "linalg/blas.hpp"
#include "linalg/norms.hpp"
#include "rng/rng.hpp"
#include "util/check.hpp"

namespace arams::core {
namespace {

using linalg::Matrix;

Matrix random_matrix(std::size_t r, std::size_t c, std::uint64_t seed) {
  Matrix m(r, c);
  Rng rng(seed);
  for (std::size_t i = 0; i < r; ++i) rng.fill_normal(m.row(i));
  return m;
}

TEST(Baselines, FactoryKnowsEveryName) {
  for (const char* name :
       {"fd", "gaussian", "countsketch", "normsample", "isvd"}) {
    const auto sketcher = make_sketcher(name, 8, 1);
    ASSERT_NE(sketcher, nullptr);
    EXPECT_EQ(sketcher->name(), name);
  }
  EXPECT_THROW(make_sketcher("typo", 8, 1), CheckError);
}

TEST(Baselines, LegacyAliasesAreRejected) {
  // The retired spellings of the baseline backends fail at the factory and
  // point at the canonical names instead.
  const std::pair<const char*, const char*> retired[] = {
      {"gaussian-projection", "gaussian"},
      {"count-sketch", "countsketch"},
      {"norm-sampling", "normsample"}};
  for (const auto& [alias, canonical] : retired) {
    try {
      (void)make_sketcher(alias, 8, 1);
      ADD_FAILURE() << alias << " still builds a sketcher";
    } catch (const CheckError& e) {
      const std::string msg = e.what();
      const std::size_t list = msg.find("registered: ");
      ASSERT_NE(list, std::string::npos) << msg;
      EXPECT_NE(msg.find(canonical, list), std::string::npos) << msg;
    }
  }
}

class BaselineKinds : public ::testing::TestWithParam<const char*> {};

TEST_P(BaselineKinds, SketchHasBoundedRowsAndRightWidth) {
  const auto sketcher = make_sketcher(GetParam(), 10, 2);
  const Matrix a = random_matrix(80, 24, 3);
  sketcher->push_batch(a);
  const Matrix b = sketcher->sketch();
  EXPECT_LE(b.rows(), 10u);
  EXPECT_EQ(b.cols(), 24u);
}

TEST_P(BaselineKinds, ReasonableCovarianceApproximation) {
  // Every baseline should approximate AᵀA on benign low-rank data —
  // relative spectral error far below 1 at ℓ well above the rank.
  data::SyntheticConfig dc;
  dc.n = 300;
  dc.d = 30;
  dc.spectrum.kind = data::DecayKind::kExponential;
  dc.spectrum.count = 10;
  dc.spectrum.rate = 0.5;
  Rng rng(4);
  const Matrix a = data::make_low_rank(dc, rng);

  const auto sketcher = make_sketcher(GetParam(), 24, 5);
  sketcher->push_batch(a);
  const Matrix b = sketcher->sketch();
  Rng power(6);
  const double rel = linalg::covariance_error_relative(a, b, power, 80);
  EXPECT_LT(rel, 0.6);
}

INSTANTIATE_TEST_SUITE_P(Kinds, BaselineKinds,
                         ::testing::Values("fd", "gaussian", "countsketch",
                                           "normsample", "isvd"));

TEST(GaussianProjection, CovarianceUnbiasedOverSeeds) {
  const Matrix a = random_matrix(40, 5, 7);
  const Matrix target = linalg::gram_cols(a);
  Matrix mean(5, 5);
  constexpr int kReps = 400;
  for (int rep = 0; rep < kReps; ++rep) {
    GaussianProjectionSketch sketcher(16, static_cast<std::uint64_t>(rep));
    sketcher.push_batch(a);
    const Matrix g = linalg::gram_cols(sketcher.sketch());
    for (std::size_t i = 0; i < 5; ++i) {
      for (std::size_t j = 0; j < 5; ++j) {
        mean(i, j) += g(i, j) / kReps;
      }
    }
  }
  EXPECT_LT(Matrix::max_abs_diff(mean, target),
            0.15 * linalg::frobenius_norm(target));
}

TEST(CountSketchTest, CovarianceUnbiasedOverSeeds) {
  const Matrix a = random_matrix(30, 4, 8);
  const Matrix target = linalg::gram_cols(a);
  Matrix mean(4, 4);
  constexpr int kReps = 500;
  for (int rep = 0; rep < kReps; ++rep) {
    CountSketch sketcher(12, static_cast<std::uint64_t>(rep) + 1);
    sketcher.push_batch(a);
    const Matrix g = linalg::gram_cols(sketcher.sketch());
    for (std::size_t i = 0; i < 4; ++i) {
      for (std::size_t j = 0; j < 4; ++j) {
        mean(i, j) += g(i, j) / kReps;
      }
    }
  }
  EXPECT_LT(Matrix::max_abs_diff(mean, target),
            0.15 * linalg::frobenius_norm(target));
}

TEST(NormSampling, HeavyRowDominatesSample) {
  Matrix a(30, 2);
  Rng rng(9);
  for (std::size_t i = 0; i < 30; ++i) {
    a(i, 0) = 0.01 * rng.normal();
  }
  a(13, 0) = 100.0;
  NormSamplingSketch sketcher(8, 10);
  sketcher.push_batch(a);
  const Matrix b = sketcher.sketch();
  // Nearly every sampled slot should hold (a rescaled copy of) the heavy
  // row.
  std::size_t heavy = 0;
  for (std::size_t i = 0; i < b.rows(); ++i) {
    if (std::abs(b(i, 0)) > 1.0) ++heavy;
  }
  EXPECT_GE(heavy, b.rows() - 1);
}

TEST(NormSampling, SketchBeforeDataIsEmpty) {
  // Empty-state contract (sketcher.hpp): sketch() on a fresh instance
  // returns an empty matrix, it never throws; basis() is the checked call.
  NormSamplingSketch sketcher(4, 11);
  EXPECT_EQ(sketcher.dim(), 0u);
  EXPECT_EQ(sketcher.sketch().rows(), 0u);
  EXPECT_THROW(sketcher.basis(2), CheckError);
}

TEST(Isvd, ExactOnDataWithinRank) {
  const Matrix a = random_matrix(6, 12, 12);
  TruncatedSvdSketch sketcher(8);
  sketcher.push_batch(a);
  const Matrix b = sketcher.sketch();
  Rng power(13);
  EXPECT_NEAR(linalg::covariance_error(a, b, power, 100), 0.0,
              1e-6 * linalg::frobenius_norm_squared(a));
}

TEST(Isvd, TruncatesWithoutShrinkageUnlikeFd) {
  // The structural difference between iSVD and FD: iSVD keeps the surviving
  // singular values *unchanged* (so the dominant direction's energy is
  // tracked exactly), while FD subtracts δ from every direction at each
  // rotation (so its top singular value is strictly deflated). FD pays that
  // deflation to buy its worst-case guarantee; iSVD has none.
  data::SyntheticConfig dc;
  dc.n = 300;
  dc.d = 24;
  dc.spectrum.kind = data::DecayKind::kExponential;
  dc.spectrum.count = 16;
  dc.spectrum.rate = 0.2;
  Rng rng(14);
  const Matrix a = data::make_low_rank(dc, rng);
  Rng p0(15);
  const double sigma1 = linalg::spectral_norm(a, p0, 150);

  TruncatedSvdSketch isvd(6);
  isvd.push_batch(a);
  FrequentDirections fd(FdConfig{6, true});
  fd.append_batch(a);
  fd.compress();

  Rng p1(16), p2(16);
  const double isvd_top = linalg::spectral_norm(isvd.sketch(), p1, 150);
  const double fd_top = linalg::spectral_norm(fd.sketch(), p2, 150);
  // iSVD tracks σ₁ almost exactly; FD's deflation leaves it visibly lower.
  EXPECT_NEAR(isvd_top, sigma1, 0.02 * sigma1);
  EXPECT_LT(fd_top, isvd_top);
  // And FD still honors its guarantee on the same stream.
  Rng power(17);
  const double fd_err =
      linalg::covariance_error(a, fd.sketch(), power, 100);
  EXPECT_LE(fd_err, linalg::frobenius_norm_squared(a) / 6.0 * 1.001);
}

TEST(Isvd, StatsCountTruncations) {
  TruncatedSvdSketch sketcher(4);
  sketcher.push_batch(random_matrix(50, 6, 16));
  EXPECT_GT(sketcher.stats().svd_count, 0);
  EXPECT_EQ(sketcher.stats().rows_processed, 50);
}

TEST(Baselines, DimensionChangeThrows) {
  for (const char* name : {"gaussian", "countsketch", "normsample", "isvd"}) {
    const auto sketcher = make_sketcher(name, 4, 17);
    const std::vector<double> row3{1.0, 2.0, 3.0};
    const std::vector<double> row2{1.0, 2.0};
    sketcher->append(row3);
    EXPECT_THROW(sketcher->append(row2), CheckError) << name;
  }
}

}  // namespace
}  // namespace arams::core
