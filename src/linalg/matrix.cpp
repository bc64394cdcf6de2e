#include "linalg/matrix.hpp"

#include <algorithm>
#include <cmath>

namespace arams::linalg {

template <typename T>
BasicMatrix<T>::BasicMatrix(
    std::initializer_list<std::initializer_list<T>> init) {
  rows_ = init.size();
  cols_ = rows_ == 0 ? 0 : init.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& row : init) {
    ARAMS_CHECK(row.size() == cols_, "ragged initializer list");
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

template <typename T>
void BasicMatrix<T>::fill(T v) {
  std::fill(data_.begin(), data_.end(), v);
}

template <typename T>
void BasicMatrix<T>::zero_row(std::size_t r) {
  ARAMS_DCHECK(r < rows_, "row index out of range");
  std::fill_n(data_.begin() + static_cast<std::ptrdiff_t>(r * cols_), cols_,
              T{0});
}

template <typename T>
void BasicMatrix<T>::set_row(std::size_t r, std::span<const T> src) {
  ARAMS_CHECK(src.size() == cols_, "row length mismatch");
  std::copy(src.begin(), src.end(),
            data_.begin() + static_cast<std::ptrdiff_t>(r * cols_));
}

template <typename T>
void BasicMatrix<T>::append_zero_rows(std::size_t count) {
  data_.resize((rows_ + count) * cols_, T{0});
  rows_ += count;
}

template <typename T>
void BasicMatrix<T>::reshape(std::size_t rows, std::size_t cols) {
  data_.resize(rows * cols);
  rows_ = rows;
  cols_ = cols;
}

template <typename T>
BasicMatrix<T> BasicMatrix<T>::slice_rows(std::size_t r0,
                                          std::size_t r1) const {
  ARAMS_CHECK(r0 <= r1 && r1 <= rows_, "bad row slice");
  BasicMatrix out(r1 - r0, cols_);
  std::copy(data_.begin() + static_cast<std::ptrdiff_t>(r0 * cols_),
            data_.begin() + static_cast<std::ptrdiff_t>(r1 * cols_),
            out.data_.begin());
  return out;
}

template <typename T>
BasicMatrix<T> BasicMatrix<T>::transposed() const {
  BasicMatrix out(cols_, rows_);
  // Simple blocked transpose; adequate for the sizes this library moves.
  constexpr std::size_t kBlock = 32;
  for (std::size_t rb = 0; rb < rows_; rb += kBlock) {
    const std::size_t rend = std::min(rows_, rb + kBlock);
    for (std::size_t cb = 0; cb < cols_; cb += kBlock) {
      const std::size_t cend = std::min(cols_, cb + kBlock);
      for (std::size_t r = rb; r < rend; ++r) {
        for (std::size_t c = cb; c < cend; ++c) {
          out.data_[c * rows_ + r] = data_[r * cols_ + c];
        }
      }
    }
  }
  return out;
}

template <typename T>
BasicMatrix<T> BasicMatrix<T>::vstack(const BasicMatrix& top,
                                      const BasicMatrix& bottom) {
  if (top.empty()) return bottom;
  if (bottom.empty()) return top;
  ARAMS_CHECK(top.cols() == bottom.cols(), "vstack column mismatch");
  BasicMatrix out(top.rows() + bottom.rows(), top.cols());
  std::copy(top.data_.begin(), top.data_.end(), out.data_.begin());
  std::copy(bottom.data_.begin(), bottom.data_.end(),
            out.data_.begin() + static_cast<std::ptrdiff_t>(top.size()));
  return out;
}

template <typename T>
BasicMatrix<T> BasicMatrix<T>::identity(std::size_t n) {
  BasicMatrix out(n, n);
  for (std::size_t i = 0; i < n; ++i) out(i, i) = T{1};
  return out;
}

template <typename T>
T BasicMatrix<T>::max_abs_diff(const BasicMatrix& a, const BasicMatrix& b) {
  ARAMS_CHECK(a.rows() == b.rows() && a.cols() == b.cols(),
              "shape mismatch in max_abs_diff");
  T m = T{0};
  for (std::size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::abs(a.data_[i] - b.data_[i]));
  }
  return m;
}

template <typename T>
BasicMatrix<T> BasicMatrixView<T>::to_matrix() const {
  BasicMatrix<T> out(rows_, cols_);
  std::copy(data_, data_ + rows_ * cols_, out.data());
  return out;
}

template class BasicMatrix<double>;
template class BasicMatrix<float>;
template class BasicMatrixView<double>;
template class BasicMatrixView<float>;

namespace {

/// One cast per element into grow-only `dst` — the body of widen/narrow.
template <typename To, typename From>
void convert(BasicMatrixView<From> src, BasicMatrix<To>& dst) {
  dst.reshape(src.rows(), src.cols());
  const From* in = src.data();
  To* out = dst.data();
  const std::size_t n = src.size();
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<To>(in[i]);
  }
}

}  // namespace

void widen(MatrixViewF src, Matrix& dst) { convert(src, dst); }

void narrow(MatrixView src, MatrixF& dst) { convert(src, dst); }

}  // namespace arams::linalg
