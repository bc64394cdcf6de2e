// io module: npy round-trip + format details, frame bundles.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>

#include "io/frames.hpp"
#include "io/npy.hpp"
#include "rng/rng.hpp"
#include "util/check.hpp"

namespace arams::io {
namespace {

using linalg::Matrix;

TEST(Npy, RoundTripPreservesValues) {
  Matrix m(7, 5);
  Rng rng(1);
  for (std::size_t i = 0; i < 7; ++i) rng.fill_normal(m.row(i));
  const std::string path = "/tmp/arams_test.npy";
  save_npy(path, m);
  const Matrix back = load_npy(path);
  EXPECT_EQ(back.rows(), 7u);
  EXPECT_EQ(back.cols(), 5u);
  EXPECT_EQ(Matrix::max_abs_diff(back, m), 0.0);
  std::remove(path.c_str());
}

TEST(Npy, HeaderIsNumpyV1WithPaddedLength) {
  const std::string path = "/tmp/arams_header.npy";
  save_npy(path, Matrix(2, 3));
  std::ifstream f(path, std::ios::binary);
  char magic[6];
  f.read(magic, 6);
  EXPECT_EQ(std::string(magic, 6), "\x93NUMPY");
  char version[2];
  f.read(version, 2);
  EXPECT_EQ(version[0], 1);
  unsigned char len[2];
  f.read(reinterpret_cast<char*>(len), 2);
  const std::size_t hlen = len[0] | (len[1] << 8);
  // 10-byte preamble + header must be 64-aligned per the npy spec.
  EXPECT_EQ((10 + hlen) % 64, 0u);
  std::string header(hlen, '\0');
  f.read(header.data(), static_cast<std::streamsize>(hlen));
  EXPECT_NE(header.find("'descr': '<f8'"), std::string::npos);
  EXPECT_NE(header.find("'fortran_order': False"), std::string::npos);
  EXPECT_NE(header.find("(2, 3)"), std::string::npos);
  EXPECT_EQ(header.back(), '\n');
  std::remove(path.c_str());
}

TEST(Npy, Loads1dAsRowVector) {
  // Hand-write a 1-D npy of 4 doubles.
  const std::string path = "/tmp/arams_1d.npy";
  {
    std::ofstream f(path, std::ios::binary);
    std::string header =
        "{'descr': '<f8', 'fortran_order': False, 'shape': (4,), }";
    const std::size_t total = ((10 + header.size() + 1 + 63) / 64) * 64;
    header.resize(total - 10 - 1, ' ');
    header += '\n';
    f << "\x93NUMPY";
    f.put('\x01');
    f.put('\x00');
    f.put(static_cast<char>(header.size() & 0xff));
    f.put(static_cast<char>(header.size() >> 8));
    f << header;
    const double vals[4] = {1.0, 2.5, -3.0, 4.25};
    f.write(reinterpret_cast<const char*>(vals), sizeof(vals));
  }
  const Matrix m = load_npy(path);
  EXPECT_EQ(m.rows(), 1u);
  EXPECT_EQ(m.cols(), 4u);
  EXPECT_EQ(m(0, 1), 2.5);
  EXPECT_EQ(m(0, 2), -3.0);
  std::remove(path.c_str());
}

TEST(Npy, RejectsGarbage) {
  const std::string path = "/tmp/arams_garbage.npy";
  {
    std::ofstream f(path, std::ios::binary);
    f << "not an npy file at all";
  }
  EXPECT_THROW(load_npy(path), CheckError);
  std::remove(path.c_str());
}

TEST(Npy, RejectsWrongDtype) {
  // '<f4' is a first-class dtype now (the fp32 ingest lane); an integer
  // dtype still has to be refused by both loaders.
  const std::string path = "/tmp/arams_i8.npy";
  {
    std::ofstream f(path, std::ios::binary);
    std::string header =
        "{'descr': '<i8', 'fortran_order': False, 'shape': (2, 2), }";
    header += '\n';
    f << "\x93NUMPY";
    f.put('\x01');
    f.put('\x00');
    f.put(static_cast<char>(header.size() & 0xff));
    f.put(static_cast<char>(header.size() >> 8));
    f << header << std::string(32, '\0');
  }
  EXPECT_THROW(load_npy(path), CheckError);
  EXPECT_THROW(load_npy_f32(path), CheckError);
  std::remove(path.c_str());
}

TEST(Npy, Float32RoundTripPreservesValues) {
  // The fp32 mirror of RoundTripPreservesValues: '<f4' on disk, no fp64
  // round trip, bit-exact payload back.
  linalg::MatrixF m(7, 5);
  Rng rng(7);
  for (std::size_t i = 0; i < 7; ++i) {
    for (float& v : m.row(i)) v = static_cast<float>(rng.normal());
  }
  const std::string path = "/tmp/arams_test_f32.npy";
  save_npy_f32(path, m);
  const linalg::MatrixF back = load_npy_f32(path);
  EXPECT_EQ(back.rows(), 7u);
  EXPECT_EQ(back.cols(), 5u);
  EXPECT_EQ(linalg::MatrixF::max_abs_diff(back, m), 0.0f);

  std::ifstream f(path, std::ios::binary);
  std::string preamble(10, '\0');
  f.read(preamble.data(), 10);
  std::string header(256, '\0');
  f.read(header.data(), 256);
  EXPECT_NE(header.find("'descr': '<f4'"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Npy, Float32PayloadWidensThroughF64Loader) {
  linalg::MatrixF m(3, 4);
  for (std::size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = 0.25f * static_cast<float>(i) - 1.5f;
  }
  const std::string path = "/tmp/arams_widen_f4.npy";
  save_npy_f32(path, m);
  const Matrix wide = load_npy(path);
  EXPECT_EQ(wide.rows(), 3u);
  EXPECT_EQ(wide.cols(), 4u);
  for (std::size_t i = 0; i < m.size(); ++i) {
    EXPECT_EQ(wide.data()[i], static_cast<double>(m.data()[i]));
  }
  std::remove(path.c_str());
}

TEST(Npy, Float64PayloadNarrowsThroughF32Loader) {
  Matrix m(2, 3);
  Rng rng(11);
  for (std::size_t i = 0; i < 2; ++i) rng.fill_normal(m.row(i));
  const std::string path = "/tmp/arams_narrow_f8.npy";
  save_npy(path, m);
  const linalg::MatrixF narrow = load_npy_f32(path);
  EXPECT_EQ(narrow.rows(), 2u);
  EXPECT_EQ(narrow.cols(), 3u);
  for (std::size_t i = 0; i < m.size(); ++i) {
    EXPECT_EQ(narrow.data()[i], static_cast<float>(m.data()[i]));
  }
  std::remove(path.c_str());
}

TEST(Npy, RejectsTruncatedPayload) {
  const std::string path = "/tmp/arams_trunc.npy";
  save_npy(path, Matrix(4, 4));
  // Chop the file.
  {
    std::ifstream in(path, std::ios::binary);
    std::string all((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
    std::ofstream out(path, std::ios::binary);
    out.write(all.data(), static_cast<std::streamsize>(all.size() - 40));
  }
  EXPECT_THROW(load_npy(path), CheckError);
  std::remove(path.c_str());
}

TEST(Npy, EmptyMatrixRefused) {
  EXPECT_THROW(save_npy("/tmp/x.npy", Matrix()), CheckError);
}

/// Hand-writes a '<f8' npy whose header claims `shape` (a python tuple
/// literal) followed by `payload_bytes` zero bytes.
void write_npy_claiming(const std::string& path, const std::string& shape,
                        std::size_t payload_bytes) {
  std::ofstream f(path, std::ios::binary);
  std::string header =
      "{'descr': '<f8', 'fortran_order': False, 'shape': " + shape + ", }";
  const std::size_t total = ((10 + header.size() + 1 + 63) / 64) * 64;
  header.resize(total - 10 - 1, ' ');
  header += '\n';
  f << "\x93NUMPY";
  f.put('\x01');
  f.put('\x00');
  f.put(static_cast<char>(header.size() & 0xff));
  f.put(static_cast<char>(header.size() >> 8));
  f << header << std::string(payload_bytes, '\0');
}

TEST(Npy, RejectsShapeWhoseElementCountOverflows) {
  // 2^33 · 2^31 = 2^64 wraps to 0 elements in size_t arithmetic.
  const std::string path = "/tmp/arams_overflow_shape.npy";
  write_npy_claiming(path, "(8589934592, 2147483648)", 64);
  EXPECT_THROW(load_npy(path), CheckError);
  EXPECT_THROW(load_npy_f32(path), CheckError);
  std::remove(path.c_str());
}

TEST(Npy, RejectsShapeLargerThanThePayloadBeforeAllocating) {
  // 1.6e13 elements promised, 64 bytes present: must fail on the size
  // check, not with bad_alloc from the 128 TB allocation.
  const std::string path = "/tmp/arams_huge_shape.npy";
  write_npy_claiming(path, "(4000000, 4000000)", 64);
  EXPECT_THROW(load_npy(path), CheckError);
  EXPECT_THROW(load_npy_f32(path), CheckError);
  std::remove(path.c_str());
}

/// Hand-writes a frame bundle header {h, w, count} followed by
/// `payload_bytes` zero bytes.
void write_frames_claiming(const std::string& path, std::uint64_t h,
                           std::uint64_t w, std::uint64_t count,
                           std::size_t payload_bytes) {
  std::ofstream f(path, std::ios::binary);
  f << "ARAMSFR1";
  for (const std::uint64_t v : {h, w, count}) {
    for (int i = 0; i < 8; ++i) f.put(static_cast<char>((v >> (8 * i)) & 0xff));
  }
  f << std::string(payload_bytes, '\0');
}

TEST(Frames, RejectsFrameShapeWhosePixelCountOverflows) {
  // h·w = 2^33 · 2^31 wraps to 0 pixels per frame.
  const std::string path = "/tmp/arams_overflow_shape.frames";
  write_frames_claiming(path, std::uint64_t{1} << 33, std::uint64_t{1} << 31, 1,
                        64);
  EXPECT_THROW(load_frames(path), CheckError);
  std::remove(path.c_str());
}

TEST(Frames, RejectsFrameCountLargerThanThePayload) {
  // 2^62 frames promised: must fail on the size check, not with
  // length_error from reserving the frame vector.
  const std::string path = "/tmp/arams_huge_count.frames";
  write_frames_claiming(path, 2, 2, std::uint64_t{1} << 62, 64);
  EXPECT_THROW(load_frames(path), CheckError);
  std::remove(path.c_str());
}

TEST(Frames, RoundTrip) {
  std::vector<image::ImageF> frames;
  Rng rng(2);
  for (int i = 0; i < 5; ++i) {
    image::ImageF img(6, 4);
    rng.fill_normal(img.pixels());
    frames.push_back(std::move(img));
  }
  const std::string path = "/tmp/arams_test.frames";
  save_frames(path, frames);
  const auto back = load_frames(path);
  ASSERT_EQ(back.size(), 5u);
  EXPECT_EQ(back[0].height(), 6u);
  EXPECT_EQ(back[0].width(), 4u);
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t p = 0; p < 24; ++p) {
      ASSERT_EQ(back[i].pixels()[p], frames[i].pixels()[p]);
    }
  }
  std::remove(path.c_str());
}

TEST(Frames, RejectsInconsistentShapes) {
  std::vector<image::ImageF> frames;
  frames.emplace_back(2, 2);
  frames.emplace_back(3, 3);
  EXPECT_THROW(save_frames("/tmp/x.frames", frames), CheckError);
}

TEST(Frames, RejectsEmptyBundle) {
  EXPECT_THROW(save_frames("/tmp/x.frames", {}), CheckError);
}

TEST(Frames, RejectsWrongMagic) {
  const std::string path = "/tmp/arams_bad.frames";
  {
    std::ofstream f(path, std::ios::binary);
    f << "WRONGMAGIC and then some bytes";
  }
  EXPECT_THROW(load_frames(path), CheckError);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace arams::io
