#include "measure.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <unordered_map>

#include "embed/metrics.hpp"
#include "obs/build_info.hpp"
#include "obs/metrics.hpp"
#include "parallel/thread_pool.hpp"

namespace perfbench {

using arams::linalg::Matrix;

void RunResult::add(std::string name, double value, std::string unit,
                    std::string detail) {
  metrics.push_back(
      Metric{std::move(name), value, std::move(unit), std::move(detail)});
}

void RunResult::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    failures.push_back(what);
  }
}

const std::vector<LayerSpec> kLayerMetrics = {
    {"image.preprocess_us", "us"},
    {"stream.ingest_us", "us"},
    {"stream.update_ms", "ms"},
    {"stream.health_ms", "ms"},
    {"core.push_batch_ms", "ms"},
    {"core.sketch_ms", "ms"},
    {"core.merge_ms", "ms"},
    {"core.merge_ops", "count"},
    {"core.rows_in", "count"},
    {"core.rows_kept_frac", "frac"},
    {"core.shrinks", "count"},
    {"core.rank_increases", "count"},
    {"core.final_ell", "count"},
    {"fd.shrink_ms", "ms"},
    {"linalg.eig_calls", "count"},
    {"linalg.eig_ms", "ms"},
    {"linalg.gemm_parallel_calls", "count"},
    {"linalg.workspace_mb", "MiB"},
    {"embed.project_ms", "ms"},
    {"embed.umap_ms", "ms"},
    {"embed.knn_ms", "ms"},
    {"embed.layout_ms", "ms"},
    {"embed.index_build_ms", "ms"},
    {"embed.ann_candidates_scored", "count"},
    {"embed.transform_ms", "ms"},
    {"embed.insert_ms", "ms"},
    {"cluster.optics_ms", "ms"},
    {"cluster.core_dist_ms", "ms"},
    {"cluster.abod_ms", "ms"},
    {"pool.task_wait_ms", "ms"},
    {"pool.task_run_ms", "ms"},
    {"pool.utilization", "frac"},
    {"obs.trace_overhead_frac", "frac"},
    {"stream.unaccounted_frac", "frac"},
};

void emit_layers(RunResult& result,
                 const std::map<std::string, double>& layers) {
  for (const auto& spec : kLayerMetrics) {
    const auto it = layers.find(spec.name);
    result.add(spec.name, it == layers.end() ? 0.0 : it->second, spec.unit);
  }
}

void registry_layers(const RegistrySnapshot& delta, double episodes,
                     double wall, std::size_t pool,
                     std::map<std::string, double>& layers) {
  const auto per_episode = [&](double v) { return v / episodes; };
  layers["core.merge_ops"] = per_episode(delta.counter("merge.ops"));
  layers["fd.shrink_ms"] = per_episode(delta.hist_sum("fd.shrink_seconds")) * 1e3;
  layers["linalg.eig_calls"] =
      per_episode(delta.hist_count("linalg.eig_seconds"));
  layers["linalg.eig_ms"] =
      per_episode(delta.hist_sum("linalg.eig_seconds")) * 1e3;
  layers["linalg.gemm_parallel_calls"] =
      per_episode(delta.counter("linalg.gemm_parallel_count"));
  layers["linalg.workspace_mb"] =
      delta.gauge("linalg.workspace_bytes") / (1024.0 * 1024.0);
  layers["embed.ann_candidates_scored"] =
      per_episode(delta.counter("embed.ann_candidates_scored"));
  layers["cluster.core_dist_ms"] =
      per_episode(delta.hist_sum("cluster.core_dist_seconds")) * 1e3;
  const long tasks = delta.hist_count("pool.task_run_seconds");
  const double run_s = delta.hist_sum("pool.task_run_seconds");
  if (tasks > 0) {
    layers["pool.task_wait_ms"] =
        delta.hist_sum("pool.task_wait_seconds") / tasks * 1e3;
    layers["pool.task_run_ms"] = run_s / tasks * 1e3;
  }
  if (wall > 0.0 && pool > 0) {
    layers["pool.utilization"] = run_s / (wall * static_cast<double>(pool));
  }
}

bool setup_reps_done(const std::vector<double>& setup_seconds) {
  double total = 0.0;
  for (const double s : setup_seconds) total += s;
  return setup_seconds.size() >= 9 ||
         (setup_seconds.size() >= 3 && total >= 3.0);
}

bool start_another(std::size_t done, double phase_start, double until) {
  if (done == 0) return true;
  const double now = now_seconds();
  const double mean = (now - phase_start) / static_cast<double>(done);
  return now + 0.5 * mean < until;
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double percentile(std::vector<double> values, double p) {
  std::sort(values.begin(), values.end());
  const double pos = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

std::string sample_note(const std::vector<double>& values,
                        const std::string& label) {
  const auto [lo, hi] = std::minmax_element(values.begin(), values.end());
  return "n=" + std::to_string(values.size()) + " " + label + ", range " +
         std::to_string(*lo) + ".." + std::to_string(*hi);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

RegistrySnapshot RegistrySnapshot::take() {
  RegistrySnapshot snap;
  arams::obs::MetricsRegistry::Visitor visitor;
  visitor.on_counter = [&](const std::string& name,
                           const arams::obs::Counter& c) {
    snap.counters[name] = c.value();
  };
  visitor.on_gauge = [&](const std::string& name,
                         const arams::obs::Gauge& g) {
    snap.gauges[name] = g.value();
  };
  visitor.on_histogram = [&](const std::string& name,
                             const arams::obs::Histogram& h) {
    snap.histograms[name] = {h.count(), h.sum()};
  };
  arams::obs::metrics().visit(visitor);
  return snap;
}

RegistrySnapshot RegistrySnapshot::minus(const RegistrySnapshot& before) const {
  RegistrySnapshot d = *this;
  for (auto& [name, value] : d.counters) value -= before.counter(name);
  for (auto& [name, value] : d.histograms) {
    value.first -= before.hist_count(name);
    value.second -= before.hist_sum(name);
  }
  return d;  // gauges are levels, not flows: keep the later reading
}

long RegistrySnapshot::counter(const std::string& name) const {
  const auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

long RegistrySnapshot::hist_count(const std::string& name) const {
  const auto it = histograms.find(name);
  return it == histograms.end() ? 0 : it->second.first;
}

double RegistrySnapshot::hist_sum(const std::string& name) const {
  const auto it = histograms.find(name);
  return it == histograms.end() ? 0.0 : it->second.second;
}

double RegistrySnapshot::gauge(const std::string& name) const {
  const auto it = gauges.find(name);
  return it == gauges.end() ? 0.0 : it->second;
}

std::map<std::string, double> self_times_us(
    const std::vector<arams::obs::SpanRecord>& spans,
    const std::string& prefix) {
  std::unordered_map<std::uint64_t, std::vector<const arams::obs::SpanRecord*>>
      by_thread;
  for (const auto& span : spans) {
    if (span.name.compare(0, prefix.size(), prefix) == 0) {
      by_thread[span.thread_id].push_back(&span);
    }
  }
  std::map<std::string, double> self;
  for (auto& [thread, list] : by_thread) {
    // Parents start no later than their children and last at least as long.
    std::sort(list.begin(), list.end(), [](const auto* a, const auto* b) {
      return a->start_us != b->start_us ? a->start_us < b->start_us
                                        : a->duration_us > b->duration_us;
    });
    std::vector<const arams::obs::SpanRecord*> open;
    for (const auto* span : list) {
      while (!open.empty() &&
             open.back()->start_us + open.back()->duration_us <=
                 span->start_us) {
        open.pop_back();
      }
      self[span->name] += span->duration_us;
      if (!open.empty()) self[open.back()->name] -= span->duration_us;
      open.push_back(span);
    }
  }
  return self;
}

bool bitwise_equal(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         (a.size() == 0 ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool all_finite(const Matrix& m) {
  return std::all_of(m.data(), m.data() + m.size(),
                     [](double v) { return std::isfinite(v); });
}

SampledTrust sampled_trustworthiness(const Matrix& latent,
                                     const Matrix& embedding) {
  constexpr std::size_t kNeighbors = 12;
  constexpr std::size_t kRows = 1024;
  const std::size_t stride = std::max<std::size_t>(latent.rows() / kRows, 1);
  const auto every = [stride](const Matrix& m) {
    Matrix out((m.rows() + stride - 1) / stride, m.cols());
    for (std::size_t i = 0, r = 0; i < m.rows(); i += stride, ++r) {
      out.set_row(r, m.row(i));
    }
    return out;
  };
  return {arams::embed::trustworthiness(every(latent), every(embedding),
                                        kNeighbors),
          stride};
}

void check_quality(double trust, double rel_error, const RunOptions& options,
                   RunResult& result) {
  result.check(trust >= options.floor_trustworthiness,
               "trustworthiness " + std::to_string(trust) + " below floor " +
                   std::to_string(options.floor_trustworthiness));
  result.check(std::isfinite(rel_error) &&
                   rel_error <= options.ceiling_sketch_rel_error,
               "sketch_rel_error " + std::to_string(rel_error) +
                   " above ceiling " +
                   std::to_string(options.ceiling_sketch_rel_error));
}

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(" \t", colon + 1));
      }
    }
  }
  return "unknown";
}

}  // namespace

std::vector<std::string> host_record(const RunOptions& options) {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int affinity =
      sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : -1;
  const char* pool_env = std::getenv("ARAMS_POOL_THREADS");
  const auto& build = arams::obs::build_info();
  return {
      "nproc: " + std::to_string(affinity) + " (online " +
          std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) + ")",
      "pool_threads: " +
          std::to_string(arams::parallel::shared_pool().thread_count()) +
          " (ARAMS_POOL_THREADS=" + (pool_env ? pool_env : "unset") +
          ", else hardware_concurrency)",
      "cpu_model: " + cpu_model(),
      std::string("build_type: ") + build.build_type,
      std::string("kernel_march: ") + build.march,
      std::string("compiler: ") + build.compiler,
      "git_commit: " + options.git_commit,
      "source_digest: " + options.source_digest,
      "seed: " + std::to_string(options.seed),
  };
}

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace perfbench
