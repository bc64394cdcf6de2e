#pragma once
// Boundary check shared by the binary readers (npy.cpp, frames.cpp). A
// header's extents are untrusted: without this check their product can
// wrap to a tiny size, or ask std::vector for terabytes and throw
// bad_alloc / length_error instead of a CheckError.

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <istream>
#include <string>

#include "util/check.hpp"

namespace arams::io {

/// Checks, before anything is allocated, that an `extents` payload of
/// `elem_bytes`-sized elements fits in the rest of f from its read
/// position: throws CheckError when the product overflows or the payload
/// is longer than the bytes left in the file. Leaves the read position
/// unchanged.
inline void check_payload_fits(
    std::istream& f, std::initializer_list<std::uint64_t> extents,
    std::size_t elem_bytes, const std::string& path) {
  std::size_t bytes = elem_bytes;
  for (const std::uint64_t e : extents) {
    ARAMS_CHECK(!__builtin_mul_overflow(bytes, e, &bytes),
                "payload size overflows in " + path);
  }
  const std::streampos start = f.tellg();
  f.seekg(0, std::ios::end);
  const std::streampos end = f.tellg();
  f.seekg(start);
  ARAMS_CHECK(f.good() && start >= 0 && end >= start,
              "cannot size payload of " + path);
  ARAMS_CHECK(bytes <= static_cast<std::size_t>(end - start),
              "truncated payload in " + path + ": header promises " +
                  std::to_string(bytes) + " bytes, file holds " +
                  std::to_string(static_cast<std::size_t>(end - start)));
}

}  // namespace arams::io
