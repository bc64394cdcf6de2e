#include "io/npy.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <sstream>
#include <type_traits>
#include <vector>

#include "io/payload.hpp"
#include "util/check.hpp"

namespace arams::io {

namespace {

constexpr char kMagic[] = "\x93NUMPY";

/// Extracts the value of a python-dict literal key like "'shape': (3, 4)".
std::string dict_value(const std::string& header, const std::string& key) {
  const auto kpos = header.find("'" + key + "'");
  ARAMS_CHECK(kpos != std::string::npos, "npy header missing key " + key);
  auto vpos = header.find(':', kpos);
  ARAMS_CHECK(vpos != std::string::npos, "malformed npy header");
  ++vpos;
  while (vpos < header.size() && header[vpos] == ' ') ++vpos;
  // Value ends at the matching comma outside parentheses.
  int depth = 0;
  std::size_t end = vpos;
  for (; end < header.size(); ++end) {
    const char c = header[end];
    if (c == '(') ++depth;
    if (c == ')') --depth;
    if ((c == ',' || c == '}') && depth == 0) break;
  }
  return header.substr(vpos, end - vpos);
}

/// Writes magic + version + padded dict header for an r×c array of the
/// given dtype descr ('<f8' or '<f4').
void write_header(std::ofstream& f, const char* descr, std::size_t rows,
                  std::size_t cols) {
  std::ostringstream dict;
  dict << "{'descr': '" << descr << "', 'fortran_order': False, 'shape': ("
       << rows << ", " << cols << "), }";
  std::string header = dict.str();
  // Pad with spaces so that magic(6)+version(2)+len(2)+header is a
  // multiple of 64, terminated by '\n'.
  const std::size_t base = 6 + 2 + 2;
  const std::size_t total = ((base + header.size() + 1 + 63) / 64) * 64;
  header.resize(total - base - 1, ' ');
  header += '\n';

  f.write(kMagic, 6);
  f.put('\x01');
  f.put('\x00');
  const auto hlen = static_cast<std::uint16_t>(header.size());
  f.put(static_cast<char>(hlen & 0xff));
  f.put(static_cast<char>(hlen >> 8));
  f.write(header.data(), static_cast<std::streamsize>(header.size()));
}

/// Parsed .npy prolog: shape plus which of the two supported dtypes the
/// payload carries. The stream is left positioned at the payload, which is
/// known to fit in the file.
struct NpyProlog {
  std::size_t rows = 0;
  std::size_t cols = 0;
  bool is_f32 = false;
};

NpyProlog read_prolog(std::ifstream& f, const std::string& path) {
  char magic[6];
  f.read(magic, 6);
  ARAMS_CHECK(f.good() && std::memcmp(magic, kMagic, 6) == 0,
              "not an npy file: " + path);
  char version[2];
  f.read(version, 2);
  ARAMS_CHECK(f.good() && version[0] == 1,
              "unsupported npy version in " + path);
  unsigned char len_bytes[2];
  f.read(reinterpret_cast<char*>(len_bytes), 2);
  const std::size_t hlen =
      static_cast<std::size_t>(len_bytes[0]) |
      (static_cast<std::size_t>(len_bytes[1]) << 8);
  std::string header(hlen, '\0');
  f.read(header.data(), static_cast<std::streamsize>(hlen));
  ARAMS_CHECK(f.good(), "truncated npy header in " + path);

  NpyProlog out;
  const std::string descr = dict_value(header, "descr");
  if (descr.find("<f4") != std::string::npos) {
    out.is_f32 = true;
  } else {
    ARAMS_CHECK(descr.find("<f8") != std::string::npos,
                "npy dtype must be little-endian float64 or float32, got " +
                    descr);
  }
  const std::string order = dict_value(header, "fortran_order");
  ARAMS_CHECK(order.find("False") != std::string::npos,
              "npy must be C-ordered");

  // Parse "(r, c)" or "(n,)".
  std::string shape = dict_value(header, "shape");
  for (auto& c : shape) {
    if (c == '(' || c == ')' || c == ',') c = ' ';
  }
  std::istringstream ss(shape);
  ss >> out.rows;
  if (!(ss >> out.cols)) {
    out.cols = out.rows;  // 1-D array of length n → 1×n matrix
    out.rows = 1;
  }
  ARAMS_CHECK(out.rows > 0 && out.cols > 0, "npy with empty shape: " + path);
  check_payload_fits(f, {out.rows, out.cols},
                     out.is_f32 ? sizeof(float) : sizeof(double), path);
  return out;
}

template <typename T>
constexpr const char* npy_descr() {
  return std::is_same_v<T, float> ? "<f4" : "<f8";
}

template <typename T>
void read_payload(std::ifstream& f, T* dst, std::size_t n,
                  const std::string& path) {
  f.read(reinterpret_cast<char*>(dst),
         static_cast<std::streamsize>(n * sizeof(T)));
  ARAMS_CHECK(f.good(), "truncated npy payload in " + path);
}

template <typename T>
void save_as(const std::string& path, const linalg::BasicMatrix<T>& m) {
  ARAMS_CHECK(!m.empty(), "refusing to write an empty matrix");
  std::ofstream f(path, std::ios::binary);
  ARAMS_CHECK(f.good(), "cannot open for writing: " + path);
  write_header(f, npy_descr<T>(), m.rows(), m.cols());
  f.write(reinterpret_cast<const char*>(m.data()),
          static_cast<std::streamsize>(m.size() * sizeof(T)));
  ARAMS_CHECK(f.good(), "write failed: " + path);
}

/// Loads either dtype into a T matrix: the matching dtype is read in
/// place, the other one is read into a buffer and converted on the copy.
template <typename T>
linalg::BasicMatrix<T> load_as(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  ARAMS_CHECK(f.good(), "cannot open: " + path);
  const NpyProlog p = read_prolog(f, path);

  linalg::BasicMatrix<T> m(p.rows, p.cols);
  if (p.is_f32 == std::is_same_v<T, float>) {
    read_payload(f, m.data(), m.size(), path);
  } else {
    using Stored = std::conditional_t<std::is_same_v<T, float>, double, float>;
    std::vector<Stored> buf(m.size());
    read_payload(f, buf.data(), buf.size(), path);
    std::transform(buf.begin(), buf.end(), m.data(),
                   [](Stored v) { return static_cast<T>(v); });
  }
  return m;
}

}  // namespace

void save_npy(const std::string& path, const linalg::Matrix& m) {
  save_as(path, m);
}

void save_npy_f32(const std::string& path, const linalg::MatrixF& m) {
  save_as(path, m);
}

linalg::Matrix load_npy(const std::string& path) {
  return load_as<double>(path);
}

linalg::MatrixF load_npy_f32(const std::string& path) {
  return load_as<float>(path);
}

}  // namespace arams::io
