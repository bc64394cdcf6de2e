// Figure 2 — strong scaling: runtime vs number of cores (log-log),
// tree-merge vs serial-merge.
//
// The paper runs vanilla FD (ℓ=200) on a 2000×1,658,880 matrix with
// cubically decaying spectrum over 1–128 MPI ranks. This harness is the
// *measured* in-process realization: a core::ShardedSketcher round-robins
// the stream across P concurrent FD shards on the shared pool, and the
// merge phase compares serial_merge / tree_merge run inline / tree_merge
// on the shared pool by real wall time. On a single-core host the ingest
// columns are flat — the bench reports the host/pool size so that is
// legible — while the merge-strategy walls and the exact critical-path
// structure (levels, shrink counts, dispatched groups) remain meaningful
// anywhere.
//
// Expected shape (≥4 cores): ingest rows/s grows with shards until the
// memory bus saturates; the pool-executed tree-merge wall beats the
// serial fold at P ≥ 4.
//
// --json-out writes BENCH_merge.json (via tools/bench_to_json.sh
// fig2_scaling); tools/check_merge_scaling.sh gates on those fields.

#include <algorithm>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/fd.hpp"
#include "core/merge.hpp"
#include "core/sharded.hpp"
#include "core/sketcher.hpp"
#include "data/synthetic.hpp"
#include "parallel/thread_pool.hpp"
#include "util/check.hpp"
#include "util/stopwatch.hpp"

namespace {

using namespace arams;

struct ShardRow {
  std::size_t shards = 0;
  double ingest_seconds = 0.0;       ///< min-over-reps full-stream wall
  double ingest_rows_per_s = 0.0;
  double ingest_speedup = 0.0;       ///< vs the 1-shard row
  double serial_merge_s = 0.0;       ///< serial_merge measured wall
  double tree_merge_s = 0.0;         ///< tree_merge inline wall
  double parallel_merge_s = 0.0;     ///< tree_merge on the shared pool
  long merge_levels = 0;
  long merge_ops = 0;
  long parallel_groups = 0;          ///< groups dispatched to the pool
};

/// Ingests the pre-sliced batches through a P-shard FD wrapper on the
/// shared pool; returns the min-over-reps wall of the full stream.
double time_sharded_ingest(const std::vector<linalg::Matrix>& batches,
                           std::size_t shards, std::size_t ell,
                           std::size_t reps) {
  double best = 0.0;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    core::SketcherConfig inner;
    inner.backend = "fd";
    inner.ell = ell;
    inner.seed = 7;
    core::ShardedSketcher sketcher(inner, shards,
                                   &parallel::shared_pool());
    Stopwatch timer;
    for (const auto& batch : batches) {
      sketcher.push_batch(batch);
    }
    const double wall = timer.seconds();
    best = (rep == 0) ? wall : std::min(best, wall);
  }
  return best;
}

void write_json(const std::string& path, const std::vector<ShardRow>& rows,
                std::size_t n, std::size_t d, std::size_t ell,
                std::size_t batch, std::size_t reps) {
  std::ofstream out(path);
  ARAMS_CHECK(out.good(), "cannot open --json-out file: " + path);
  out << "{\n  \"name\": \"fig2_scaling\",\n"
      << "  \"host_cores\": " << std::thread::hardware_concurrency()
      << ",\n"
      << "  \"pool_threads\": " << parallel::shared_pool().thread_count()
      << ",\n"
      << "  \"n\": " << n << ", \"d\": " << d << ", \"ell\": " << ell
      << ", \"batch\": " << batch << ", \"reps\": " << reps << ",\n"
      << "  \"benchmarks\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ShardRow& r = rows[i];
    out << "    {\"shards\": " << r.shards
        << ", \"ingest_seconds\": " << r.ingest_seconds
        << ", \"ingest_rows_per_s\": " << r.ingest_rows_per_s
        << ", \"ingest_speedup\": " << r.ingest_speedup
        << ", \"serial_merge_s\": " << r.serial_merge_s
        << ", \"tree_merge_s\": " << r.tree_merge_s
        << ", \"parallel_merge_s\": " << r.parallel_merge_s
        << ", \"merge_levels\": " << r.merge_levels
        << ", \"merge_ops\": " << r.merge_ops
        << ", \"parallel_groups\": " << r.parallel_groups << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags;
  flags.declare("n", "8192", "total rows streamed (paper: 2000)");
  flags.declare("d", "256", "columns (paper: 1658880)");
  flags.declare("ell", "32", "sketch rows per shard (paper: 200)");
  flags.declare("batch", "256", "rows per push_batch call");
  flags.declare("max-shards", "16", "largest shard count (paper: 128 ranks)");
  flags.declare("reps", "3", "repetitions per config (min wall reported)");
  flags.declare("json-out", "", "also write results as JSON (CI baseline)");
  flags.declare("full", "false", "paper-scale ell and larger matrix");
  flags.declare("help", "false", "print usage");
  flags.parse(argc, argv);
  if (flags.get_bool("help")) {
    std::cout << flags.usage("fig2_scaling");
    return 0;
  }
  const bool full = flags.get_bool("full");
  // Paper scale means ℓ=200 and a matrix big enough that merges dominate;
  // the 1.6M-column original needs a cluster's worth of memory, so --full
  // scales rows/ell and keeps d at a single-node size.
  const std::size_t n =
      full ? 20000 : static_cast<std::size_t>(flags.get_int("n"));
  const std::size_t d =
      full ? 1024 : static_cast<std::size_t>(flags.get_int("d"));
  const std::size_t ell =
      full ? 200 : static_cast<std::size_t>(flags.get_int("ell"));
  const std::size_t batch =
      std::max<std::size_t>(1, static_cast<std::size_t>(
                                   flags.get_int("batch")));
  const std::size_t max_shards =
      std::max<std::size_t>(1, static_cast<std::size_t>(
                                   flags.get_int("max-shards")));
  const std::size_t reps = std::max<std::size_t>(
      1, static_cast<std::size_t>(flags.get_int("reps")));

  bench::banner("Figure 2 (strong scaling, measured sharded ingest + merge)",
                full,
                "real pool-executed shards and tree merges");
  std::cout << "host cores: " << std::thread::hardware_concurrency()
            << ", shared pool threads: "
            << parallel::shared_pool().thread_count() << "\n";

  std::cerr << "[fig2] generating " << n << "x" << d
            << " cubic-spectrum matrix...\n";
  data::SyntheticConfig dc;
  dc.n = n;
  dc.d = d;
  dc.spectrum.kind = data::DecayKind::kCubic;
  dc.spectrum.count = std::min({n, d, std::size_t{256}});
  Rng rng(2);
  const linalg::Matrix a = data::make_low_rank(dc, rng);

  // Pre-slice the stream once so batch construction never lands inside an
  // ingest timer.
  std::vector<linalg::Matrix> batches;
  for (std::size_t r0 = 0; r0 < n; r0 += batch) {
    batches.push_back(a.slice_rows(r0, std::min(n, r0 + batch)));
  }

  std::vector<ShardRow> rows;
  Table table({"shards", "ingest_rows_per_s", "ingest_speedup",
               "serial_merge_s", "tree_merge_s", "parallel_merge_s",
               "parallel_vs_serial"});

  double base_rate = 0.0;
  for (std::size_t p = 1; p <= max_shards; p *= 2) {
    ShardRow row;
    row.shards = p;

    // --- ingest phase: the full stream through a P-shard wrapper ---
    row.ingest_seconds = time_sharded_ingest(batches, p, ell, reps);
    row.ingest_rows_per_s =
        row.ingest_seconds > 0.0
            ? static_cast<double>(n) / row.ingest_seconds
            : 0.0;
    if (p == 1) base_rate = row.ingest_rows_per_s;
    row.ingest_speedup =
        base_rate > 0.0 ? row.ingest_rows_per_s / base_rate : 1.0;

    // --- merge phase: P shard sketches, three reduction strategies ---
    if (p > 1) {
      std::vector<linalg::Matrix> shard_sketches(p);
      for (std::size_t c = 0; c < p; ++c) {
        core::FrequentDirections fd(core::FdConfig{ell, /*fast=*/true});
        fd.append_batch(a.slice_rows(c * n / p, (c + 1) * n / p));
        fd.compress();
        shard_sketches[c] = fd.sketch();
      }
      core::MergeStats par_stats;
      for (std::size_t rep = 0; rep < reps; ++rep) {
        core::MergeStats serial_stats;
        core::MergeStats tree_stats;
        core::MergeStats rep_par_stats;
        auto copy = shard_sketches;
        core::serial_merge(std::move(copy), ell, &serial_stats);
        copy = shard_sketches;
        core::tree_merge(std::move(copy), ell, 2, &tree_stats);
        copy = shard_sketches;
        core::tree_merge(std::move(copy), ell, 2, &rep_par_stats,
                         &parallel::shared_pool());
        const auto keep_min = [rep](double& slot, double wall) {
          slot = (rep == 0) ? wall : std::min(slot, wall);
        };
        keep_min(row.serial_merge_s,
                 serial_stats.critical_path_seconds_measured);
        keep_min(row.tree_merge_s,
                 tree_stats.critical_path_seconds_measured);
        keep_min(row.parallel_merge_s,
                 rep_par_stats.critical_path_seconds_measured);
        par_stats = rep_par_stats;
      }
      row.merge_levels = par_stats.levels;
      row.merge_ops = par_stats.merge_ops;
      row.parallel_groups = par_stats.parallel_groups;
    }

    rows.push_back(row);
    table.add_row(
        {Table::num(static_cast<long>(p)),
         Table::num(row.ingest_rows_per_s), Table::num(row.ingest_speedup),
         Table::num(row.serial_merge_s), Table::num(row.tree_merge_s),
         Table::num(row.parallel_merge_s),
         Table::num(row.parallel_merge_s > 0.0
                        ? row.serial_merge_s / row.parallel_merge_s
                        : 1.0)});
  }
  bench::emit("measured sharded ingest + merge strategies", table);

  std::cout << "\nexpected shape (>=4 cores): ingest rows/s grows with "
               "shards; parallel tree-merge wall beats the P-1-step serial "
               "fold at P >= 4. On a single-core host the ingest column is "
               "flat and only the merge structure (levels, shrinks, "
               "dispatched groups) carries the Fig. 2 argument.\n";

  const std::string json_out = flags.get("json-out");
  if (!json_out.empty()) {
    write_json(json_out, rows, n, d, ell, batch, reps);
    std::cerr << "[fig2] wrote " << json_out << "\n";
  }
  return 0;
}
