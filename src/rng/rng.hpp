#pragma once
// Deterministic, stream-splittable random number generation.
//
// The sketching pipeline must be reproducible given a seed, including when
// work is sharded. SplitMix64 seeds independent
// xoshiro256** streams; `Rng::split(i)` derives the stream for core i.

#include <cstdint>
#include <span>

namespace arams {

/// xoshiro256** PRNG with Gaussian sampling. Cheap to copy; not thread-safe
/// (give each thread / shard its own instance via split()).
class Rng {
 public:
  /// Seeds the state from a 64-bit seed via SplitMix64 expansion.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

  /// Derives an independent stream for shard `index`.
  [[nodiscard]] Rng split(std::uint64_t index) const;

  /// Next raw 64 random bits.
  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0.
  std::uint64_t uniform_index(std::uint64_t n);

  /// Standard normal via Box–Muller with one cached value.
  double normal();

  /// Normal with the given mean and standard deviation.
  double normal(double mean, double stddev) { return mean + stddev * normal(); }

  /// Fills `out` with i.i.d. standard normals.
  void fill_normal(std::span<double> out);

  /// Fills `out` with i.i.d. uniforms in [0, 1).
  void fill_uniform(std::span<double> out);

  /// Exponential with rate lambda (> 0).
  double exponential(double lambda);

  /// Poisson-distributed count (Knuth for small mean, normal approx above 64).
  long poisson(double mean);

 private:
  std::uint64_t s_[4];
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
  std::uint64_t seed_origin_;
};

}  // namespace arams
