// Unit tests for the BasicMatrix container and its two instantiations.

#include <gtest/gtest.h>

#include "linalg/matrix.hpp"
#include "util/check.hpp"

namespace arams::linalg {
namespace {

// Typed over {double, float}: each MATRIX_TEST body is a template that runs
// once for Matrix and once for MatrixF under the same ctest entry, so the
// fp32 instantiation gets the fp64 coverage without a second copy of every
// case (and without renaming the suite's entries).
#define MATRIX_TEST(Name)                 \
  template <typename T>                   \
  void Name##Body();                      \
  TEST(Matrix, Name) {                    \
    {                                     \
      SCOPED_TRACE("BasicMatrix<double>"); \
      Name##Body<double>();               \
    }                                     \
    {                                     \
      SCOPED_TRACE("BasicMatrix<float>"); \
      Name##Body<float>();                \
    }                                     \
  }                                       \
  template <typename T>                   \
  void Name##Body()

MATRIX_TEST(ZeroInitialized) {
  const BasicMatrix<T> m(3, 4);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 4; ++c) {
      EXPECT_EQ(m(r, c), T{0});
    }
  }
}

MATRIX_TEST(InitializerList) {
  const BasicMatrix<T> m{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_EQ(m(0, 1), T{2});
  EXPECT_EQ(m(1, 0), T{3});
  EXPECT_EQ(m.row(0).size(), 2u);
}

MATRIX_TEST(RaggedInitializerThrows) {
  EXPECT_THROW(BasicMatrix<T>({{1.0, 2.0}, {3.0}}), CheckError);
}

MATRIX_TEST(RowSpanWritesThrough) {
  BasicMatrix<T> m(2, 3);
  auto row = m.row(1);
  row[2] = T{7};
  EXPECT_EQ(m(1, 2), T{7});
}

MATRIX_TEST(FillAndZeroRow) {
  BasicMatrix<T> m(2, 2);
  m.fill(T{5});
  m.zero_row(0);
  EXPECT_EQ(m(0, 0), T{0});
  EXPECT_EQ(m(0, 1), T{0});
  EXPECT_EQ(m(1, 0), T{5});
}

MATRIX_TEST(SetRowValidatesLength) {
  BasicMatrix<T> m(2, 3);
  const std::vector<T> good{1.0, 2.0, 3.0};
  const std::vector<T> bad{1.0};
  EXPECT_NO_THROW(m.set_row(0, good));
  EXPECT_THROW(m.set_row(0, bad), CheckError);
  EXPECT_EQ(m(0, 2), T{3});
}

MATRIX_TEST(AppendZeroRows) {
  BasicMatrix<T> m{{1.0, 2.0}};
  m.append_zero_rows(2);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m(0, 1), T{2});
  EXPECT_EQ(m(2, 0), T{0});
}

MATRIX_TEST(SliceRows) {
  const BasicMatrix<T> m{{1.0}, {2.0}, {3.0}, {4.0}};
  const BasicMatrix<T> s = m.slice_rows(1, 3);
  ASSERT_EQ(s.rows(), 2u);
  EXPECT_EQ(s(0, 0), T{2});
  EXPECT_EQ(s(1, 0), T{3});
  // rows_of views the same range without a copy.
  const BasicMatrixView<T> v = BasicMatrixView<T>::rows_of(m, 1, 3);
  ASSERT_EQ(v.rows(), 2u);
  EXPECT_EQ(v.data(), m.data() + 1);
  EXPECT_EQ(v(1, 0), T{3});
  EXPECT_EQ(BasicMatrix<T>::max_abs_diff(v.to_matrix(), s), T{0});
}

MATRIX_TEST(SliceValidatesBounds) {
  const BasicMatrix<T> m(2, 2);
  EXPECT_THROW(static_cast<void>(m.slice_rows(1, 3)), CheckError);
  EXPECT_THROW(static_cast<void>(m.slice_rows(2, 1)), CheckError);
  EXPECT_THROW(BasicMatrixView<T>::rows_of(m, 1, 3), CheckError);
  EXPECT_THROW(BasicMatrixView<T>::rows_of(m, 2, 1), CheckError);
}

MATRIX_TEST(TransposeRoundTrip) {
  BasicMatrix<T> m(5, 7);
  T v{0};
  for (std::size_t r = 0; r < 5; ++r) {
    for (std::size_t c = 0; c < 7; ++c) {
      m(r, c) = v++;
    }
  }
  const BasicMatrix<T> t = m.transposed();
  EXPECT_EQ(t.rows(), 7u);
  EXPECT_EQ(t.cols(), 5u);
  EXPECT_EQ(BasicMatrix<T>::max_abs_diff(t.transposed(), m), T{0});
}

MATRIX_TEST(TransposeLargeBlocks) {
  // Exercise the blocked path with dimensions > one block.
  BasicMatrix<T> m(65, 70);
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < m.cols(); ++c) {
      m(r, c) = static_cast<T>(r * 1000 + c);
    }
  }
  const BasicMatrix<T> t = m.transposed();
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < m.cols(); ++c) {
      ASSERT_EQ(t(c, r), m(r, c));
    }
  }
}

MATRIX_TEST(Vstack) {
  const BasicMatrix<T> a{{1.0, 2.0}};
  const BasicMatrix<T> b{{3.0, 4.0}, {5.0, 6.0}};
  const BasicMatrix<T> s = BasicMatrix<T>::vstack(a, b);
  ASSERT_EQ(s.rows(), 3u);
  EXPECT_EQ(s(0, 0), T{1});
  EXPECT_EQ(s(2, 1), T{6});
}

MATRIX_TEST(VstackWithEmpty) {
  const BasicMatrix<T> a{{1.0, 2.0}};
  const BasicMatrix<T> empty;
  EXPECT_EQ(BasicMatrix<T>::max_abs_diff(BasicMatrix<T>::vstack(a, empty), a),
            T{0});
  EXPECT_EQ(BasicMatrix<T>::max_abs_diff(BasicMatrix<T>::vstack(empty, a), a),
            T{0});
}

MATRIX_TEST(VstackColumnMismatchThrows) {
  const BasicMatrix<T> a(1, 2);
  const BasicMatrix<T> b(1, 3);
  EXPECT_THROW(BasicMatrix<T>::vstack(a, b), CheckError);
}

MATRIX_TEST(Identity) {
  const BasicMatrix<T> i = BasicMatrix<T>::identity(3);
  EXPECT_EQ(i(0, 0), T{1});
  EXPECT_EQ(i(1, 1), T{1});
  EXPECT_EQ(i(0, 1), T{0});
}

MATRIX_TEST(MaxAbsDiff) {
  const BasicMatrix<T> a{{1.0, 2.0}};
  const BasicMatrix<T> b{{1.5, 2.0}};
  EXPECT_EQ(BasicMatrix<T>::max_abs_diff(a, b), T{0.5});
}

MATRIX_TEST(MaxAbsDiffShapeMismatchThrows) {
  EXPECT_THROW(
      BasicMatrix<T>::max_abs_diff(BasicMatrix<T>(1, 2), BasicMatrix<T>(2, 1)),
      CheckError);
}

MATRIX_TEST(BytesTrackLiveShapeCapacityKeepsHighWater) {
  BasicMatrix<T> m(4, 8);
  EXPECT_EQ(m.bytes(), 4u * 8u * sizeof(T));
  EXPECT_GE(m.capacity_bytes(), m.bytes());
  const std::size_t high_water = m.capacity_bytes();
  // Grow-only reshape: shrinking updates the live footprint but never
  // releases the reservation (the allocation-free steady-state contract).
  m.reshape(2, 3);
  EXPECT_EQ(m.bytes(), 2u * 3u * sizeof(T));
  EXPECT_EQ(m.capacity_bytes(), high_water);
  m.reshape(4, 8);
  EXPECT_EQ(m.bytes(), 4u * 8u * sizeof(T));
  EXPECT_EQ(m.capacity_bytes(), high_water);
}

MATRIX_TEST(ReshapeKeepsLeadingRowsAtSameWidth) {
  BasicMatrix<T> m{{1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}};
  m.reshape(2, 2);
  EXPECT_EQ(m(1, 1), T{4});
  m.reshape(5, 2);
  EXPECT_EQ(m(0, 0), T{1});
  EXPECT_EQ(m(1, 0), T{3});
}

#undef MATRIX_TEST

// ------------------------------------------- fp32 ingest-lane specifics

// The fp32 lane's own entries run the float instantiation of the shared
// bodies above.
TEST(MatrixF, ZeroInitialized) { ZeroInitializedBody<float>(); }

TEST(MatrixF, InitializerListAndRowSpans) {
  InitializerListBody<float>();
  RowSpanWritesThroughBody<float>();
}

TEST(MatrixF, SliceRowsAndViews) {
  SliceRowsBody<float>();
  SliceValidatesBoundsBody<float>();
}

TEST(MatrixF, MaxAbsDiff) { MaxAbsDiffBody<float>(); }

TEST(MatrixF, BytesAreFloatSized) {
  // The whole point of the lane: the same shape costs half the bytes.
  EXPECT_EQ(MatrixF(4, 8).bytes(), 4u * 8u * sizeof(float));
  EXPECT_EQ(Matrix(4, 8).bytes(), 2u * MatrixF(4, 8).bytes());
}

TEST(MatrixF, RoundTripsThroughMatrix) {
  const Matrix wide{{1.25, -2.5}, {3.75, 0.5}};  // exact in fp32
  MatrixF narrowed;
  narrow(wide, narrowed);
  EXPECT_EQ(narrowed(0, 1), -2.5F);
  Matrix back;
  widen(narrowed, back);
  EXPECT_EQ(Matrix::max_abs_diff(back, wide), 0.0);
}

TEST(MatrixF, WidenReusesDestinationStorage) {
  const MatrixF src{{1.0F, 2.0F, 3.0F}, {4.0F, 5.0F, 6.0F}};
  Matrix dst(8, 8);  // bigger than needed: widen must grow-only reshape
  const std::size_t reserved = dst.capacity_bytes();
  widen(MatrixViewF(src), dst);
  EXPECT_EQ(dst.rows(), 2u);
  EXPECT_EQ(dst.cols(), 3u);
  EXPECT_EQ(dst(1, 2), 6.0);
  EXPECT_EQ(dst.capacity_bytes(), reserved);
}

}  // namespace
}  // namespace arams::linalg
