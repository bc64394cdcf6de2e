// perfbench_harness — runs one benchmark workload and prints its metrics.
//
//   perfbench_harness --workload <stream-ingest|stream-snapshot|batch-diffraction>
//                    --seed <n> --seconds <s> --trace <0|1>
//                    [--trace-out <file>] [--floor-ari <x>]
//                    [--floor-trustworthiness <x>]
//                    [--ceiling-sketch-rel-error <x>] [--max-health <ok|degraded>]
//                    [--git-commit <id>] [--source-digest <hex>]
//
// Human-readable lines (host record, each metric with its sample note,
// failed checks) come first; the last line of stdout is one JSON object
// with the keys correct, attempted, failed and metrics. --trace 0 reports
// the end-to-end metrics, --trace 1 the per-layer metrics and writes the
// span record to --trace-out. Exit status 0 only when every check passed.
// perfbench/run.py builds this program and supplies the floors from
// perfbench/spec.json.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "workloads.hpp"

namespace {

using perfbench::RunOptions;
using perfbench::RunResult;

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

std::string full_digits(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int usage(const char* why) {
  std::cerr << "perfbench_harness: " << why
            << "\nusage: perfbench_harness --workload <stream-ingest|"
               "stream-snapshot|batch-diffraction> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace-out <file>] [--floor-ari <x>] "
               "[--floor-trustworthiness <x>] [--ceiling-sketch-rel-error <x>] "
               "[--max-health <ok|degraded>] "
               "[--git-commit <id>] [--source-digest <hex>]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return usage(("unexpected argument " + key).c_str());
    args[key.substr(2)] = argv[i + 1];
  }
  if (argc % 2 == 0) return usage("every flag takes a value");

  RunOptions options;
  try {
    options.workload = args.at("workload");
    options.seed = std::stoull(args.at("seed"));
    options.seconds = std::stod(args.at("seconds"));
    options.trace = args.at("trace") == "1";
    if (args.count("trace-out")) options.trace_out = args["trace-out"];
    if (args.count("floor-ari")) options.floor_ari = std::stod(args["floor-ari"]);
    if (args.count("floor-trustworthiness")) {
      options.floor_trustworthiness = std::stod(args["floor-trustworthiness"]);
    }
    if (args.count("ceiling-sketch-rel-error")) {
      options.ceiling_sketch_rel_error =
          std::stod(args["ceiling-sketch-rel-error"]);
    }
    if (args.count("max-health")) {
      const std::string& h = args["max-health"];
      if (h == "ok") options.max_health = arams::obs::HealthState::kOk;
      else if (h == "degraded") options.max_health = arams::obs::HealthState::kDegraded;
      else throw std::invalid_argument("max-health");
    }
    if (args.count("git-commit")) options.git_commit = args["git-commit"];
    if (args.count("source-digest")) options.source_digest = args["source-digest"];
  } catch (const std::exception&) {
    return usage("missing or malformed --workload/--seed/--seconds/--trace");
  }
  if (!(options.seconds > 0.0)) return usage("--seconds must be positive");

  RunResult (*run)(const RunOptions&) = nullptr;
  if (options.workload == "stream-ingest") run = perfbench::run_stream_ingest;
  if (options.workload == "stream-snapshot") run = perfbench::run_stream_snapshot;
  if (options.workload == "batch-diffraction") run = perfbench::run_batch_diffraction;
  if (run == nullptr) return usage(("unknown workload " + options.workload).c_str());

  // Statics die in reverse order of construction: building the metrics
  // registry and the tracer before the shared pool (first used by
  // host_record) keeps them alive until the pool's workers are joined at
  // exit.
  (void)arams::obs::metrics();
  (void)arams::obs::tracer();

  std::cout << "workload: " << options.workload
            << (options.trace ? " (traced)" : "") << "\n";
  for (const std::string& line : perfbench::host_record(options)) {
    std::cout << "host " << line << "\n";
  }

  RunResult result;
  try {
    result = run(options);
  } catch (const std::exception& e) {
    ++result.attempted;
    ++result.failed;
    result.failures.push_back(std::string("exception: ") + e.what());
  }
  if (options.trace && !options.trace_out.empty()) {
    std::ofstream out(options.trace_out);
    arams::obs::tracer().write_chrome_trace(out);
    std::cout << "spans written to " << options.trace_out << "\n";
  }

  for (auto& m : result.metrics) {
    if (!std::isfinite(m.value)) {
      ++result.attempted;
      ++result.failed;
      result.failures.push_back("metric " + m.name + " is not finite");
      m.value = 0.0;
    }
    std::cout << "metric " << m.name << " = " << full_digits(m.value) << " "
              << m.unit << (m.detail.empty() ? "" : "  (" + m.detail + ")")
              << "\n";
  }
  for (const auto& f : result.failures) std::cout << "FAILED " << f << "\n";
  const bool correct = result.failed == 0 && !result.metrics.empty();
  std::cout << "failed_frac = "
            << full_digits(result.attempted > 0
                               ? static_cast<double>(result.failed) /
                                     static_cast<double>(result.attempted)
                               : 1.0)
            << " (" << result.failed << " of " << result.attempted
            << " operations)\n";

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(std::max(result.attempted, 1L));
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const auto& m = result.metrics[i];
    if (i > 0) json += ", ";
    json += "\"" + json_escape(m.name) + "\": {\"value\": " +
            full_digits(m.value) + ", \"unit\": \"" + json_escape(m.unit) +
            "\"}";
  }
  json += "}}";
  std::cout << json << std::endl;
  return correct ? 0 : 1;
}
