#pragma once
// Monotonic wall-clock stopwatch used by every benchmark harness and by the
// stage and merge timings.

#include <chrono>

namespace arams {

/// Steady-clock stopwatch. Starts running on construction.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  /// Restarts the stopwatch and returns the elapsed seconds before the reset.
  double lap();

  /// Elapsed seconds since construction or the last lap().
  [[nodiscard]] double seconds() const;

  /// Elapsed milliseconds since construction or the last lap().
  [[nodiscard]] double millis() const { return seconds() * 1e3; }

  void reset() { start_ = Clock::now(); }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Accumulating timer: sums the duration of many timed sections.
class Accumulator {
 public:
  void add(double seconds) { total_ += seconds; ++count_; }
  [[nodiscard]] double total_seconds() const { return total_; }
  [[nodiscard]] long count() const { return count_; }
  void reset() { total_ = 0.0; count_ = 0; }

 private:
  double total_ = 0.0;
  long count_ = 0;
};

}  // namespace arams
