#include "io/frames.hpp"

#include <cstdint>
#include <cstring>
#include <fstream>

#include "io/payload.hpp"
#include "util/check.hpp"

namespace arams::io {

namespace {
constexpr char kMagic[8] = {'A', 'R', 'A', 'M', 'S', 'F', 'R', '1'};

void write_u64(std::ofstream& f, std::uint64_t v) {
  char buf[8];
  for (int i = 0; i < 8; ++i) {
    buf[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
  f.write(buf, 8);
}

std::uint64_t read_u64(std::ifstream& f) {
  unsigned char buf[8];
  f.read(reinterpret_cast<char*>(buf), 8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(buf[i]) << (8 * i);
  }
  return v;
}
}  // namespace

void save_frames(const std::string& path,
                 const std::vector<image::ImageF>& frames) {
  ARAMS_CHECK(!frames.empty(), "refusing to write an empty frame bundle");
  const std::size_t h = frames.front().height();
  const std::size_t w = frames.front().width();
  std::ofstream f(path, std::ios::binary);
  ARAMS_CHECK(f.good(), "cannot open for writing: " + path);
  f.write(kMagic, 8);
  write_u64(f, h);
  write_u64(f, w);
  write_u64(f, frames.size());
  for (const auto& frame : frames) {
    ARAMS_CHECK(frame.height() == h && frame.width() == w,
                "inconsistent frame shapes in bundle");
    const auto pixels = frame.pixels();
    f.write(reinterpret_cast<const char*>(pixels.data()),
            static_cast<std::streamsize>(pixels.size() * sizeof(double)));
  }
  ARAMS_CHECK(f.good(), "write failed: " + path);
}

std::vector<image::ImageF> load_frames(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  ARAMS_CHECK(f.good(), "cannot open: " + path);
  char magic[8];
  f.read(magic, 8);
  ARAMS_CHECK(f.good() && std::memcmp(magic, kMagic, 8) == 0,
              "not an ARAMS frame bundle: " + path);
  const std::uint64_t h = read_u64(f);
  const std::uint64_t w = read_u64(f);
  const std::uint64_t count = read_u64(f);
  ARAMS_CHECK(f.good() && h > 0 && w > 0 && count > 0,
              "malformed frame bundle header in " + path);
  check_payload_fits(f, {h, w, count}, sizeof(double), path);

  std::vector<image::ImageF> frames;
  frames.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    image::ImageF frame(h, w);
    auto pixels = frame.pixels();
    f.read(reinterpret_cast<char*>(pixels.data()),
           static_cast<std::streamsize>(pixels.size() * sizeof(double)));
    ARAMS_CHECK(f.good(), "truncated frame bundle: " + path);
    frames.push_back(std::move(frame));
  }
  return frames;
}

}  // namespace arams::io
