// Ablation — merge strategy and tree arity.
//
// DESIGN.md calls out the choice of binary tree merging. This harness
// compares serial merging against trees of arity 2/4/8 (run on the shared
// pool) on the same 64 per-core sketches: critical-path rotations,
// measured merge work and wall, and final sketch error.

#include <iostream>

#include "bench_common.hpp"
#include "core/fd.hpp"
#include "core/merge.hpp"
#include "data/synthetic.hpp"
#include "linalg/blas.hpp"
#include "linalg/norms.hpp"
#include "parallel/thread_pool.hpp"

int main(int argc, char** argv) {
  using namespace arams;

  CliFlags flags;
  flags.declare("shards", "64", "number of per-core sketches");
  flags.declare("rows-per-shard", "96", "rows per shard");
  flags.declare("d", "512", "feature dimension");
  flags.declare("ell", "24", "sketch rows");
  flags.declare("help", "false", "print usage");
  flags.parse(argc, argv);
  if (flags.get_bool("help")) {
    std::cout << flags.usage("ablation_merge");
    return 0;
  }
  const auto shards = static_cast<std::size_t>(flags.get_int("shards"));
  const auto rows = static_cast<std::size_t>(flags.get_int("rows-per-shard"));
  const auto d = static_cast<std::size_t>(flags.get_int("d"));
  const auto ell = static_cast<std::size_t>(flags.get_int("ell"));

  bench::banner("Ablation (merge strategy / tree arity)", false,
                "critical path and error for serial vs a-ary tree merges");

  // Build the per-shard sketches once.
  Rng rng(17);
  linalg::Matrix full;
  std::vector<linalg::Matrix> sketches;
  std::cerr << "[merge] sketching " << shards << " shards...\n";
  for (std::size_t s = 0; s < shards; ++s) {
    linalg::Matrix shard(rows, d);
    for (std::size_t i = 0; i < rows; ++i) {
      rng.fill_normal(shard.row(i));
    }
    core::FrequentDirections fd(core::FdConfig{ell, true});
    fd.append_batch(shard);
    fd.compress();
    sketches.push_back(fd.sketch());
    full = linalg::Matrix::vstack(full, shard);
  }

  Table table({"strategy", "critical_path_ops", "total_ops",
               "merge_work_s", "merge_wall_s", "error_rel"});
  const auto report = [&](const std::string& name,
                          std::vector<linalg::Matrix> copies,
                          std::size_t arity) {
    core::MergeStats stats;
    const linalg::Matrix merged =
        (arity == 0)
            ? core::serial_merge(std::move(copies), ell, &stats)
            : core::tree_merge(std::move(copies), ell, arity, &stats,
                               &parallel::shared_pool());
    Rng power(5);
    const double err =
        linalg::covariance_error_relative(full, merged, power, 25);
    table.add_row({name, Table::num(stats.critical_path_ops),
                   Table::num(stats.merge_ops),
                   Table::num(stats.total_seconds),
                   Table::num(stats.critical_path_seconds_measured),
                   Table::num(err)});
  };

  report("serial", sketches, 0);
  report("tree-2", sketches, 2);
  report("tree-4", sketches, 4);
  report("tree-8", sketches, 8);
  bench::emit("merge strategies on " + std::to_string(shards) + " sketches",
              table);

  std::cout << "\nexpected shape: all strategies land at comparable error; "
               "the tree critical path shrinks from P-1 to ~log_a(P) "
               "rotations, with higher arity trading fewer levels for "
               "bigger per-level stacks.\n";
  return 0;
}
