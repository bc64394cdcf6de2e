#pragma once
// obs::MetricsRegistry — named counters, gauges and fixed-bucket latency
// histograms for live telemetry.
//
// Concurrency contract: looking a metric up by name takes the registry
// mutex once; the returned reference stays valid for the registry's
// lifetime, so hot paths resolve their metric once (e.g. a function-local
// static) and then record with relaxed atomics only. ThreadPool workers and
// sketch shards record concurrently without contending on anything but the
// cache line of the metric itself.

#include <atomic>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace arams::obs {

/// Monotonic event counter.
class Counter {
 public:
  void add(long delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  [[nodiscard]] long value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<long> value_{0};
};

/// Last-write-wins instantaneous value (queue depth, occupancy, rate).
class Gauge {
 public:
  void set(double value) { value_.store(value, std::memory_order_relaxed); }
  [[nodiscard]] double value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Default histogram bucket upper bounds for latencies: log-spaced from
/// 1 µs to 10 s (1, 10, 100 µs, 1, 10, 100 ms, 1, 10 s).
std::span<const double> default_latency_bounds();

/// Fixed-bucket histogram. A value lands in the first bucket whose upper
/// bound is >= value; values above every bound land in the overflow bucket.
class Histogram {
 public:
  /// `upper_bounds` must be non-empty and strictly ascending.
  explicit Histogram(std::span<const double> upper_bounds);

  void observe(double value);

  [[nodiscard]] long count() const {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum() const {
    return sum_.load(std::memory_order_relaxed);
  }
  /// Bucket a value would land in (== upper_bounds().size() → overflow).
  [[nodiscard]] std::size_t bucket_index(double value) const;
  /// Per-bucket counts; one extra trailing entry for overflow.
  [[nodiscard]] std::vector<long> bucket_counts() const;
  [[nodiscard]] const std::vector<double>& upper_bounds() const {
    return bounds_;
  }
  void reset();

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<long>[]> buckets_;  // bounds_.size() + 1
  std::atomic<long> count_{0};
  std::atomic<double> sum_{0.0};
};

class EwmaRate;
class SlidingHistogram;

class MetricsRegistry {
 public:
  MetricsRegistry();
  ~MetricsRegistry();

  /// Finds or creates the named metric. References remain valid for the
  /// registry's lifetime.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// `upper_bounds` is consulted only when the name is first registered;
  /// empty → default_latency_bounds().
  Histogram& histogram(std::string_view name,
                       std::span<const double> upper_bounds = {});
  /// Windowed metrics (obs/window.hpp). As with histogram(), the shape
  /// parameters are consulted only at first registration.
  EwmaRate& ewma(std::string_view name, double tau_seconds = 10.0);
  SlidingHistogram& sliding_histogram(
      std::string_view name, double window_seconds = 30.0,
      std::size_t epochs = 6, std::span<const double> upper_bounds = {});

  /// Plain-text dump of every metric, sorted by name.
  [[nodiscard]] std::string summary() const;

  /// One JSON object per line:
  ///   {"type":"counter","name":...,"value":...}
  ///   {"type":"gauge","name":...,"value":...}
  ///   {"type":"histogram","name":...,"count":...,"sum":...,
  ///    "bounds":[...],"buckets":[...]}
  ///   {"type":"ewma","name":...,"rate":...,"total":...}
  ///   {"type":"sliding","name":...,"window":...,"count":...,
  ///    "rate":...,"p50":...,"p95":...,"p99":...}
  void write_json_lines(std::ostream& out) const;

  /// Visits every registered metric in name order under the registry
  /// mutex — the enumeration surface the Prometheus exporter renders
  /// from. Callbacks may be empty.
  struct Visitor {
    std::function<void(const std::string&, const Counter&)> on_counter;
    std::function<void(const std::string&, const Gauge&)> on_gauge;
    std::function<void(const std::string&, const Histogram&)> on_histogram;
    std::function<void(const std::string&, const EwmaRate&)> on_ewma;
    std::function<void(const std::string&, const SlidingHistogram&)>
        on_sliding;
  };
  void visit(const Visitor& visitor) const;

  /// Zeroes every metric (keeps registrations) — test isolation.
  void reset();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
  std::map<std::string, std::unique_ptr<EwmaRate>, std::less<>> ewmas_;
  std::map<std::string, std::unique_ptr<SlidingHistogram>, std::less<>>
      slidings_;
};

/// Process-global registry the built-in instrumentation records into.
MetricsRegistry& metrics();

}  // namespace arams::obs
