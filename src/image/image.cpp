#include "image/image.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <numeric>

namespace arams::image {

template <typename T>
double BasicImage<T>::total_intensity() const {
  return std::accumulate(data_.begin(), data_.end(), 0.0);
}

// fp32 lane: the same double-precision reduction split across eight
// independent accumulators, so the loop is bandwidth- rather than
// add-latency-bound. The summation order differs from the fp64 kernel
// (which stays bitwise-frozen serial), shifting only the last ulp — within
// the lane's drift budget — and a NaN pixel still propagates into the
// total, so every !(x > 0) guard downstream behaves identically.
template <>
double BasicImage<float>::total_intensity() const {
  double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
  double a4 = 0.0, a5 = 0.0, a6 = 0.0, a7 = 0.0;
  const float* v = data_.data();
  const std::size_t n = data_.size();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    a0 += static_cast<double>(v[i]);
    a1 += static_cast<double>(v[i + 1]);
    a2 += static_cast<double>(v[i + 2]);
    a3 += static_cast<double>(v[i + 3]);
    a4 += static_cast<double>(v[i + 4]);
    a5 += static_cast<double>(v[i + 5]);
    a6 += static_cast<double>(v[i + 6]);
    a7 += static_cast<double>(v[i + 7]);
  }
  for (; i < n; ++i) a0 += static_cast<double>(v[i]);
  return ((a0 + a1) + (a2 + a3)) + ((a4 + a5) + (a6 + a7));
}

template <typename T>
T BasicImage<T>::max_intensity() const {
  if (data_.empty()) return T{0};
  return *std::max_element(data_.begin(), data_.end());
}

// fp32 lane: four-lane unrolled max. Value-identical to max_element in
// every case — a max() reduction is order-independent, NaNs lose every
// `>` comparison in both versions, and the one asymmetry (max_element
// returns a NaN only when it sits at index 0, because nothing compares
// greater than it) is reproduced by the explicit front check.
template <>
float BasicImage<float>::max_intensity() const {
  if (data_.empty()) return 0.0f;
  if (std::isnan(data_[0])) return data_[0];
  const float* v = data_.data();
  const std::size_t n = data_.size();
  float m0 = v[0], m1 = v[0], m2 = v[0], m3 = v[0];
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    m0 = v[i] > m0 ? v[i] : m0;
    m1 = v[i + 1] > m1 ? v[i + 1] : m1;
    m2 = v[i + 2] > m2 ? v[i + 2] : m2;
    m3 = v[i + 3] > m3 ? v[i + 3] : m3;
  }
  for (; i < n; ++i) m0 = v[i] > m0 ? v[i] : m0;
  m0 = m1 > m0 ? m1 : m0;
  m2 = m3 > m2 ? m3 : m2;
  return m2 > m0 ? m2 : m0;
}

template <typename T>
void BasicImage<T>::to_row(std::span<T> row) const {
  ARAMS_CHECK(row.size() == data_.size(), "row length != pixel count");
  std::copy(data_.begin(), data_.end(), row.begin());
}

template <typename T>
BasicImage<T> BasicImage<T>::from_row(std::span<const T> row,
                                      std::size_t height, std::size_t width) {
  ARAMS_CHECK(row.size() == height * width, "row length != height*width");
  BasicImage img(height, width);
  std::copy(row.begin(), row.end(), img.data_.begin());
  return img;
}

template <typename T>
void BasicImage<T>::save_pgm(const std::string& path) const {
  std::ofstream f(path, std::ios::binary);
  ARAMS_CHECK(f.good(), "cannot open for writing: " + path);
  const double mx =
      std::max(static_cast<double>(max_intensity()), 1e-300);
  f << "P5\n" << width_ << " " << height_ << "\n255\n";
  for (const T v : data_) {
    const double scaled =
        std::clamp(static_cast<double>(v) / mx, 0.0, 1.0) * 255.0;
    f.put(static_cast<char>(static_cast<unsigned char>(scaled)));
  }
  ARAMS_CHECK(f.good(), "write failed: " + path);
}

template class BasicImage<double>;
template class BasicImage<float>;

namespace {

/// One cast per pixel — the body of narrow/widen.
template <typename To, typename From>
BasicImage<To> convert(const BasicImage<From>& img) {
  BasicImage<To> out(img.height(), img.width());
  const std::span<const From> src = img.pixels();
  std::transform(src.begin(), src.end(), out.pixels().begin(),
                 [](From v) { return static_cast<To>(v); });
  return out;
}

}  // namespace

ImageF32 narrow(const ImageF& img) { return convert<float>(img); }

ImageF widen(const ImageF32& img) { return convert<double>(img); }

template <typename T>
linalg::BasicMatrix<T> images_to_matrix(
    const std::vector<BasicImage<T>>& images) {
  ARAMS_CHECK(!images.empty(), "empty image batch");
  const std::size_t d = images.front().pixel_count();
  linalg::BasicMatrix<T> out(images.size(), d);
  for (std::size_t i = 0; i < images.size(); ++i) {
    ARAMS_CHECK(images[i].pixel_count() == d, "inconsistent image shapes");
    images[i].to_row(out.row(i));
  }
  return out;
}

template linalg::Matrix images_to_matrix(const std::vector<ImageF>&);
template linalg::MatrixF images_to_matrix(const std::vector<ImageF32>&);

}  // namespace arams::image
