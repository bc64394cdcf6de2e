// Figure 3 — error vs number of cores (log-log), tree vs serial merge.
//
// Each core sketches its own contiguous row range with FD; the per-core
// sketches are then reduced by tree_merge and by serial_merge.
//
// Expected shape: the tree-merge error tracks the serial-merge error
// closely across core counts — the mergeable-summary guarantee does not
// degrade in the branching scheme.

#include <iostream>

#include "bench_common.hpp"
#include "core/fd.hpp"
#include "core/merge.hpp"
#include "data/synthetic.hpp"
#include "linalg/blas.hpp"
#include "linalg/norms.hpp"

int main(int argc, char** argv) {
  using namespace arams;

  CliFlags flags;
  flags.declare("n", "1024", "total rows (paper: 2000)");
  flags.declare("d", "1024", "columns (paper: 1658880)");
  flags.declare("ell", "32", "sketch rows (paper: 200)");
  flags.declare("max-cores", "64", "largest core count (paper: 128)");
  flags.declare("power-iters", "30", "power iterations per error estimate");
  flags.declare("full", "false", "paper-scale parameters");
  flags.declare("help", "false", "print usage");
  flags.parse(argc, argv);
  if (flags.get_bool("help")) {
    std::cout << flags.usage("fig3_parallel_error");
    return 0;
  }
  const bool full = flags.get_bool("full");
  const std::size_t n =
      full ? 2000 : static_cast<std::size_t>(flags.get_int("n"));
  const std::size_t d =
      full ? 1658880 : static_cast<std::size_t>(flags.get_int("d"));
  const std::size_t ell =
      full ? 200 : static_cast<std::size_t>(flags.get_int("ell"));
  const std::size_t max_cores =
      full ? 128 : static_cast<std::size_t>(flags.get_int("max-cores"));
  const int power_iters = static_cast<int>(flags.get_int("power-iters"));

  bench::banner("Figure 3 (error vs cores, tree vs serial merge)", full,
                "relative covariance error of the merged global sketch");

  data::SyntheticConfig dc;
  dc.n = n;
  dc.d = d;
  dc.spectrum.kind = data::DecayKind::kCubic;
  dc.spectrum.count = std::min({n, d, std::size_t{256}});
  // A small white-noise floor keeps the sketch error non-trivial (the pure
  // cubic tail beyond ℓ is ~1e-9 relative, which would hide the tree-vs-
  // serial comparison the figure is about).
  dc.noise = 3e-3;
  Rng rng(3);
  std::cerr << "[fig3] generating " << n << "x" << d
            << " cubic-spectrum matrix...\n";
  const linalg::Matrix a = data::make_low_rank(dc, rng);
  const double fd_bound = 1.0 / static_cast<double>(ell);

  Table table({"cores", "tree_error_rel", "serial_error_rel",
               "tree/serial", "fd_bound_rel"});
  for (std::size_t cores = 1; cores <= max_cores; cores *= 2) {
    std::vector<linalg::Matrix> sketches(cores);
    for (std::size_t core = 0; core < cores; ++core) {
      core::FrequentDirections fd(core::FdConfig{ell, /*fast=*/true});
      fd.append_batch(a.slice_rows(core * n / cores, (core + 1) * n / cores));
      fd.compress();
      sketches[core] = fd.sketch();
    }
    const auto error = [&](const linalg::Matrix& merged) {
      Rng power(42);
      return linalg::covariance_error_relative(a, merged, power,
                                               power_iters);
    };
    const double errors[2] = {
        error(core::tree_merge(sketches, ell)),
        error(core::serial_merge(sketches, ell))};
    table.add_row({Table::num(static_cast<long>(cores)),
                   Table::num(errors[0]), Table::num(errors[1]),
                   Table::num(errors[1] > 0 ? errors[0] / errors[1] : 1.0),
                   Table::num(fd_bound)});
  }
  bench::emit("relative covariance error vs cores", table);

  std::cout << "\nexpected shape: tree error stays within a small factor of "
               "the serial error at every core count, and both respect the "
               "FD bound.\n";
  return 0;
}
