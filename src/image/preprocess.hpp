#pragma once
// Detector-frame preprocessing, mirroring Section VI of the paper: intensity
// thresholding, intensity normalization, and center-of-mass centering so the
// sketch focuses on beam *shape* rather than pointing jitter or pulse energy.
//
// Every kernel is one template over the pixel type, instantiated for
// ImageF (fp64, the default analysis path) and ImageF32 (the fp32 ingest
// lane), with all reductions (totals, centroids, block means) accumulated
// in double so the NaN-guard semantics are identical in both lanes.

#include <vector>

#include "image/image.hpp"

namespace arams::image {

struct CenterOfMass {
  double y = 0.0;
  double x = 0.0;
  double mass = 0.0;
};

/// Zeroes pixels below `threshold` (absolute counts).
template <typename T>
void threshold_below(BasicImage<T>& img, double threshold);

/// Zeroes pixels below `fraction` of the maximum (robust to pulse energy).
template <typename T>
void threshold_relative(BasicImage<T>& img, double fraction);

/// Scales the image so the total intensity equals `target` (no-op for an
/// all-zero image).
template <typename T>
void normalize_intensity(BasicImage<T>& img, double target = 1.0);

/// Intensity-weighted centroid (double accumulation in both lanes).
template <typename T>
CenterOfMass center_of_mass(const BasicImage<T>& img);
/// fp32 lane: a multi-accumulator kernel (see preprocess.cpp).
template <>
CenterOfMass center_of_mass(const BasicImage<float>& img);

/// Translates the image by integer pixels so the center of mass lands on the
/// geometric center; vacated pixels are zero-filled.
template <typename T>
void center_on_mass(BasicImage<T>& img);

/// Central crop to (height, width); throws if the crop exceeds the image.
template <typename T>
BasicImage<T> crop_center(const BasicImage<T>& img, std::size_t height,
                          std::size_t width);

/// Block-mean downsampling by an integer `factor` (dimensions must divide).
template <typename T>
BasicImage<T> downsample(const BasicImage<T>& img, std::size_t factor);

/// Preprocessing pipeline configuration used by the monitoring pipeline.
struct PreprocessConfig {
  double threshold_fraction = 0.02;  ///< relative threshold; <=0 disables
  bool normalize = true;             ///< normalize total intensity to 1
  bool center = true;                ///< center-of-mass recentring
  std::size_t downsample_factor = 1; ///< 1 disables
};

/// Applies the configured pipeline to a frame (in order: threshold,
/// center, normalize, downsample) and returns the result.
template <typename T>
BasicImage<T> preprocess(const BasicImage<T>& img,
                         const PreprocessConfig& config);

/// Applies `preprocess` to a batch.
template <typename T>
std::vector<BasicImage<T>> preprocess_batch(
    const std::vector<BasicImage<T>>& images, const PreprocessConfig& config);

}  // namespace arams::image
