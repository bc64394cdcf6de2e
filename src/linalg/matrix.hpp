#pragma once
// Dense row-major matrix, generic over the element type. This is the
// storage type the whole library is built on: sketch buffers, image
// batches, latent embeddings.
//
// Design notes:
//  * Row-major because sketching appends/zeroes *rows* and the FD shrink
//    touches rows sequentially; row(i) is a contiguous std::span.
//  * Owning, value-semantic; views are std::span over rows. Deliberately no
//    expression templates — the hot kernels live in blas.hpp.
//  * One template, two explicit instantiations (matrix.cpp): Matrix /
//    MatrixView hold doubles and carry all arithmetic; MatrixF /
//    MatrixViewF hold floats for the ingest lane. Detector frames arrive
//    fp32, so the preprocessing → sketch path moves float rows and widens
//    to double only at the accumulation boundary (panel packing in
//    blas.cpp, widen() below, or the Sketcher widening shim). The kernels
//    stay non-template overloads, so Matrix → MatrixView converts
//    implicitly at every call site.

#include <cstddef>
#include <initializer_list>
#include <span>
#include <vector>

#include "util/check.hpp"

namespace arams::linalg {

template <typename T>
class BasicMatrix {
 public:
  using value_type = T;

  BasicMatrix() = default;

  /// rows x cols matrix, zero-initialized.
  BasicMatrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, T{0}) {}

  /// Builds from nested initializer list (test convenience).
  BasicMatrix(std::initializer_list<std::initializer_list<T>> init);

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] std::size_t size() const { return data_.size(); }
  [[nodiscard]] bool empty() const { return data_.empty(); }

  T& operator()(std::size_t r, std::size_t c) {
    ARAMS_DCHECK(r < rows_ && c < cols_, "matrix index out of range");
    return data_[r * cols_ + c];
  }
  T operator()(std::size_t r, std::size_t c) const {
    ARAMS_DCHECK(r < rows_ && c < cols_, "matrix index out of range");
    return data_[r * cols_ + c];
  }

  [[nodiscard]] std::span<T> row(std::size_t r) {
    ARAMS_DCHECK(r < rows_, "row index out of range");
    return {data_.data() + r * cols_, cols_};
  }
  [[nodiscard]] std::span<const T> row(std::size_t r) const {
    ARAMS_DCHECK(r < rows_, "row index out of range");
    return {data_.data() + r * cols_, cols_};
  }

  [[nodiscard]] T* data() { return data_.data(); }
  [[nodiscard]] const T* data() const { return data_.data(); }

  /// Sets every entry to v.
  void fill(T v);

  /// Zeroes the given row.
  void zero_row(std::size_t r);

  /// Copies `src` into row r. Length must equal cols().
  void set_row(std::size_t r, std::span<const T> src);

  /// Appends rows of zeros at the bottom (used by rank adaptation when the
  /// sketch buffer grows).
  void append_zero_rows(std::size_t count);

  /// Reinterprets the matrix as rows×cols, resizing storage as needed.
  /// With cols unchanged the leading min(old, new) rows keep their values;
  /// all other contents are unspecified. Storage is grow-only: shrinking
  /// or same-size reshapes never release or reallocate memory, which is
  /// what makes Workspace-held matrices allocation-free at steady state.
  void reshape(std::size_t rows, std::size_t cols);

  /// Bytes of the live rows*cols payload — the honest logical footprint.
  [[nodiscard]] std::size_t bytes() const { return data_.size() * sizeof(T); }

  /// Bytes of heap storage currently reserved (>= bytes(); grow-only
  /// storage keeps the high-water mark).
  [[nodiscard]] std::size_t capacity_bytes() const {
    return data_.capacity() * sizeof(T);
  }

  /// Returns rows [r0, r1) as a new matrix.
  [[nodiscard]] BasicMatrix slice_rows(std::size_t r0, std::size_t r1) const;

  /// Returns the transpose as a new matrix.
  [[nodiscard]] BasicMatrix transposed() const;

  /// Stacks `top` over `bottom` (column counts must match).
  static BasicMatrix vstack(const BasicMatrix& top, const BasicMatrix& bottom);

  /// Identity matrix of order n.
  static BasicMatrix identity(std::size_t n);

  /// Max |a_ij - b_ij|; matrices must be the same shape.
  static T max_abs_diff(const BasicMatrix& a, const BasicMatrix& b);

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<T> data_;
};

/// Non-owning const view of a contiguous row range — the shape the dense
/// kernels consume. Converts implicitly from BasicMatrix, so every kernel
/// that takes a view also accepts a matrix; rows_of() views a row range
/// (e.g. the occupied prefix of a sketch buffer) without the copy
/// slice_rows() would make.
template <typename T>
class BasicMatrixView {
 public:
  using value_type = T;

  constexpr BasicMatrixView() = default;
  BasicMatrixView(const T* data, std::size_t rows, std::size_t cols)
      : data_(data), rows_(rows), cols_(cols) {}
  // NOLINTNEXTLINE(google-explicit-constructor): by-design implicit.
  BasicMatrixView(const BasicMatrix<T>& m)
      : data_(m.data()), rows_(m.rows()), cols_(m.cols()) {}

  /// Views rows [r0, r1) of m. No copy; valid while m's storage is.
  static BasicMatrixView rows_of(BasicMatrixView m, std::size_t r0,
                                 std::size_t r1) {
    ARAMS_CHECK(r0 <= r1 && r1 <= m.rows(), "bad row view");
    return {m.data() + r0 * m.cols(), r1 - r0, m.cols()};
  }

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] std::size_t size() const { return rows_ * cols_; }
  [[nodiscard]] bool empty() const { return rows_ == 0 || cols_ == 0; }
  [[nodiscard]] const T* data() const { return data_; }

  T operator()(std::size_t r, std::size_t c) const {
    ARAMS_DCHECK(r < rows_ && c < cols_, "view index out of range");
    return data_[r * cols_ + c];
  }
  [[nodiscard]] std::span<const T> row(std::size_t r) const {
    ARAMS_DCHECK(r < rows_, "view row out of range");
    return {data_ + r * cols_, cols_};
  }

  /// Materializes the view as an owning matrix of the same precision.
  [[nodiscard]] BasicMatrix<T> to_matrix() const;

 private:
  const T* data_ = nullptr;
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
};

extern template class BasicMatrix<double>;
extern template class BasicMatrix<float>;
extern template class BasicMatrixView<double>;
extern template class BasicMatrixView<float>;

/// fp64 storage — the analysis and accumulation type.
using Matrix = BasicMatrix<double>;
using MatrixView = BasicMatrixView<double>;
/// fp32 storage — the ingest lane. No arithmetic of its own: the
/// mixed-precision kernels in blas.hpp widen per register tile so all
/// accumulation stays fp64.
using MatrixF = BasicMatrix<float>;
using MatrixViewF = BasicMatrixView<float>;

/// Widens `src` into `dst` in place (grow-only reshape + one cast per
/// element). The Sketcher widening shim funnels through this with a
/// Workspace-held `dst` so steady-state fp32 ingest stays allocation-free.
void widen(MatrixViewF src, Matrix& dst);

/// Narrows `src` into `dst` in place — the "door" conversion when an fp64
/// source feeds the fp32 ingest lane.
void narrow(MatrixView src, MatrixF& dst);

}  // namespace arams::linalg
