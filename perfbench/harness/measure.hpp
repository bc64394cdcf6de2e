#pragma once
// Measurement plumbing shared by the workloads: sample statistics, the
// result record every run prints, registry deltas, span self times and the
// host record.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "linalg/matrix.hpp"
#include "obs/health.hpp"
#include "obs/trace.hpp"

namespace perfbench {

/// Everything a run is told on its command line (run.py fills the floors
/// from perfbench/spec.json).
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  ///< Chrome trace path for --trace 1 runs
  double floor_ari = 0.0;
  double floor_trustworthiness = 0.0;
  double ceiling_sketch_rel_error = 1.0;
  /// Worst watchdog state a streaming episode may end in.
  arams::obs::HealthState max_health = arams::obs::HealthState::kOk;
  std::string git_commit = "unknown";
  std::string source_digest = "unknown";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string detail;  ///< sample count / percentile, for the human report
};

/// What a workload hands back to main(): the metrics for the final JSON
/// line plus the attempted/failed operation counts.
struct RunResult {
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> failures;  ///< one line per failed check
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit,
           std::string detail = "");
  /// Counts one checked operation; a false `ok` records `what` as failed.
  void check(bool ok, const std::string& what);
};

/// Per-layer metrics in output order, with units. Every traced run prints
/// all of them; a layer a workload does not exercise reads 0.
struct LayerSpec {
  const char* name;
  const char* unit;
};
extern const std::vector<LayerSpec> kLayerMetrics;

/// Appends every kLayerMetrics entry to `result`, taking values from
/// `layers` (absent → 0).
void emit_layers(RunResult& result, const std::map<std::string, double>& layers);

/// Set-up repetition rule: at least 3 repetitions and 3 s in total, at
/// most 9, so a cheap set-up is sampled often enough for a steady median.
bool setup_reps_done(const std::vector<double>& setup_seconds);

/// Whether a timed phase that began at `phase_start` and has run `done`
/// repetitions should start another before `until`: it does while the
/// next one is expected to end less than half a repetition past `until`,
/// so a run ends within about half a repetition of its --seconds however
/// long one repetition takes.
bool start_another(std::size_t done, double phase_start, double until);

/// Median of a non-empty sample.
double median(std::vector<double> values);

/// The p-th percentile (0..100) of a non-empty sample, interpolated
/// linearly between order statistics. Each workload reports its timing
/// tail at one fixed percentile: a percentile picked from the sample count
/// would change with the number of episodes a run fits and jump between
/// runs of the same code.
double percentile(std::vector<double> values, double p);

/// "n=<count> <label>, range <min>..<max>" — the sample note printed
/// beside each timing.
std::string sample_note(const std::vector<double>& values,
                        const std::string& label);

/// Peak resident set of this process so far, MiB.
double peak_rss_mb();

/// Counters, histogram (count, sum) pairs and gauges of the process-global
/// metrics registry at one instant; `minus` gives the change between two.
struct RegistrySnapshot {
  std::map<std::string, long> counters;
  std::map<std::string, std::pair<long, double>> histograms;
  std::map<std::string, double> gauges;

  static RegistrySnapshot take();
  RegistrySnapshot minus(const RegistrySnapshot& before) const;
  [[nodiscard]] long counter(const std::string& name) const;
  [[nodiscard]] long hist_count(const std::string& name) const;
  [[nodiscard]] double hist_sum(const std::string& name) const;
  [[nodiscard]] double gauge(const std::string& name) const;
};

/// Registry-derived layer metrics over an untraced phase that ran
/// `episodes` facade episodes in `wall` seconds on a `pool`-thread pool:
/// fd/linalg/embed/cluster/pool counters and histogram sums per episode,
/// pool task means and pool utilization.
void registry_layers(const RegistrySnapshot& delta, double episodes,
                     double wall, std::size_t pool,
                     std::map<std::string, double>& layers);

/// Self time, µs, of every span whose name starts with `prefix`, summed
/// per name: each span's duration minus the part of it covered by its
/// direct children among those spans on the same thread.
std::map<std::string, double> self_times_us(
    const std::vector<arams::obs::SpanRecord>& spans,
    const std::string& prefix);

/// True when both matrices have the same shape and identical bits.
bool bitwise_equal(const arams::linalg::Matrix& a,
                   const arams::linalg::Matrix& b);

/// Every entry finite.
bool all_finite(const arams::linalg::Matrix& m);

/// Trustworthiness (k = 12) of a picture, scored on every stride-th row so
/// that at most ~1024 rows enter the library metric, whose cost is
/// quadratic in rows. Returns the score and the stride used.
struct SampledTrust {
  double value = 0.0;
  std::size_t stride = 1;
};
SampledTrust sampled_trustworthiness(const arams::linalg::Matrix& latent,
                                     const arams::linalg::Matrix& embedding);

/// The quality floors every workload shares: trustworthiness at or above
/// its floor, a finite sketch_rel_error at or below its ceiling.
void check_quality(double trust, double rel_error, const RunOptions& options,
                   RunResult& result);

/// A span that exists only while the run is traced, so untraced runs pay
/// nothing for the benchmark's own instrumentation.
class BenchSpan {
 public:
  BenchSpan(bool on, const char* name) {
    if (on) span_.emplace(name);
  }

 private:
  std::optional<arams::obs::ScopedSpan> span_;
};

/// Lines describing the host and build: nproc, pool size, CPU model,
/// build type, kernel march, git commit, source digest and seed.
std::vector<std::string> host_record(const RunOptions& options);

/// Seconds on the steady clock since an arbitrary epoch.
double now_seconds();

}  // namespace perfbench
