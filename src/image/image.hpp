#pragma once
// 2-D detector frame container. Frames flow through preprocessing as
// ImageF and are flattened to Matrix rows before sketching (the paper's
// "2-megapixel images" become d-dimensional rows).
//
// BasicImage is templated on the pixel type: ImageF (double) is the
// default analysis path, ImageF32 (float) is the fp32 ingest lane —
// detectors emit fp32 counts, so the preprocessing → sketch hot path can
// move half the bytes. Intensity sums always accumulate in double so the
// NaN-guard semantics of the preprocessing kernels are precision-blind.

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "linalg/matrix.hpp"

namespace arams::image {

/// Row-major grayscale image (detector counts), pixel type T.
template <typename T>
class BasicImage {
 public:
  BasicImage() = default;
  BasicImage(std::size_t height, std::size_t width)
      : height_(height), width_(width), data_(height * width, T{0}) {}

  [[nodiscard]] std::size_t height() const { return height_; }
  [[nodiscard]] std::size_t width() const { return width_; }
  [[nodiscard]] std::size_t pixel_count() const { return data_.size(); }

  T& at(std::size_t y, std::size_t x) {
    ARAMS_DCHECK(y < height_ && x < width_, "pixel out of range");
    return data_[y * width_ + x];
  }
  T at(std::size_t y, std::size_t x) const {
    ARAMS_DCHECK(y < height_ && x < width_, "pixel out of range");
    return data_[y * width_ + x];
  }

  [[nodiscard]] std::span<T> pixels() { return data_; }
  [[nodiscard]] std::span<const T> pixels() const { return data_; }

  /// Sum of all pixel values (always accumulated in double).
  [[nodiscard]] double total_intensity() const;

  /// Maximum pixel value (0 for an empty image).
  [[nodiscard]] T max_intensity() const;

  /// Flattens into an existing matrix row (length must be pixel_count()).
  void to_row(std::span<T> row) const;

  /// Rebuilds an image of the given shape from a flat row.
  static BasicImage from_row(std::span<const T> row, std::size_t height,
                             std::size_t width);

  /// Writes as an 8-bit binary PGM (max-normalized) for eyeballing output.
  void save_pgm(const std::string& path) const;

 private:
  std::size_t height_ = 0;
  std::size_t width_ = 0;
  std::vector<T> data_;
};

/// Detector frame of doubles — the default fp64 analysis path.
using ImageF = BasicImage<double>;
/// Detector frame of floats — the fp32 ingest lane.
using ImageF32 = BasicImage<float>;

/// Narrows an fp64 frame to fp32 (the "door" conversion when an fp64
/// source feeds the fp32 ingest lane).
ImageF32 narrow(const ImageF& img);

/// Widens an fp32 frame to fp64.
ImageF widen(const ImageF32& img);

/// Flattens a batch of same-shaped images into an n×d matrix of the same
/// pixel type (fp32 frames flatten without an fp64 round trip).
template <typename T>
linalg::BasicMatrix<T> images_to_matrix(
    const std::vector<BasicImage<T>>& images);

}  // namespace arams::image
