#pragma once
// Shared squared-Euclidean distance engine for the downstream pipeline
// (kNN graphs, UMAP transform, OPTICS, ABOD, k-means assignment).
//
// Every consumer used to run its own per-pair scalar loop; this module
// routes all of them through one blocked primitive: a distance block
// D(i,j) = ‖x_i − y_j‖² is computed as ‖x_i‖² + ‖y_j‖² − 2·(X·Yᵀ)(i,j),
// where X·Yᵀ goes through the packed, register-blocked `matmul_nt` core
// (which fans row bands across the shared pool above its flop threshold).
// The rank-1 fix-up and any per-row selection are themselves row-band
// parallel above `kElementParallelThreshold` output elements; bands are
// disjoint rows with per-element independent arithmetic, so parallel and
// sequential runs produce bit-identical blocks.
//
// Scratch discipline: blocks land in caller-provided matrices (typically
// `Workspace` slots in the `wslot::kDist*` range), so steady-state calls in
// a snapshot loop are allocation-free on the serial path (the pool dispatch
// itself allocates task state, same as the GEMM core).
//
// Accuracy contract: the Gram trick reorders the accumulation, so engine
// distances differ from the naive per-pair loop by rounding only —
// ≤ 1e-10 relative (enforced by tests/test_distance.cpp); exact zeros can
// come out as tiny negatives and are clamped to 0. Consumers that need the
// naive arithmetic bit-for-bit (parity tests, the OPTICS ordering-stability
// check) pass `DistanceOptions{.use_gemm = false}`.
//
// Telemetry: every GEMM-backed block bumps "embed.distance_gemm_count".

#include <algorithm>
#include <cstddef>
#include <span>

#include "linalg/matrix.hpp"
#include "linalg/workspace.hpp"
#include "parallel/thread_pool.hpp"

namespace arams::embed {

/// Scalar squared Euclidean distance — the shared reference path every
/// consumer falls back to for single pairs and tiny shapes.
double sq_dist(std::span<const double> a, std::span<const double> b);

struct DistanceOptions {
  /// false → per-pair scalar loops (bitwise-identical to the historical
  /// implementations; used as the parity/ordering reference).
  bool use_gemm = true;
  /// false → keep the fix-up/selection single-threaded even above the
  /// element threshold (the GEMM core's own dispatch is unaffected).
  bool allow_parallel = true;
};

/// The shared pool when `opts.allow_parallel`, the work spans at least
/// kElementParallelThreshold `elements` and the pool has two or more
/// workers; nullptr otherwise.
parallel::ThreadPool* row_band_pool(std::size_t elements,
                                    const DistanceOptions& opts);

/// Runs band(r0, r1) over the rows [0, rows): in one call, or across
/// row_band_pool() as min(rows, 4·workers) contiguous bands. Callers' rows
/// are independent, so the banding never changes results. The inline call
/// allocates nothing.
template <typename BandFn>
void for_row_bands(std::size_t rows, std::size_t elements,
                   const DistanceOptions& opts, const BandFn& band) {
  parallel::ThreadPool* pool = row_band_pool(elements, opts);
  if (pool == nullptr) {
    band(std::size_t{0}, rows);
    return;
  }
  const std::size_t bands = std::min(rows, pool->thread_count() * 4);
  pool->parallel_for(bands, [&](std::size_t t) {
    band(rows * t / bands, rows * (t + 1) / bands);
  });
}

/// out[i] = ‖a.row(i)‖². `out.size()` must equal `a.rows()`.
void row_sq_norms(linalg::MatrixView a, std::span<double> out);

/// Fills `out` (x.rows()×y.rows()) with squared distances between every row
/// of x and every row of y. `out` is reshaped in place (grow-only).
void pairwise_sq_dists(linalg::MatrixView x, linalg::MatrixView y,
                       linalg::Workspace& ws, linalg::Matrix& out,
                       const DistanceOptions& opts = {});

/// Same, with caller-precomputed squared row norms — the hoisted form for
/// loops that stream many query blocks against one reference set (blocked
/// kNN, OPTICS range queries, k-means assignment sweeps).
void pairwise_sq_dists_prenormed(linalg::MatrixView x, linalg::MatrixView y,
                                 std::span<const double> x_sq_norms,
                                 std::span<const double> y_sq_norms,
                                 linalg::Workspace& ws, linalg::Matrix& out,
                                 const DistanceOptions& opts = {});

/// Gram-only block: out = x·yᵀ through the same packed GEMM core (and the
/// same telemetry counter), with *no* norm fix-up. For consumers that fuse
/// the ‖x‖² + ‖y‖² − 2g fix-up into their own consumption pass (the blocked
/// kNN selection does this) so the block is traversed once instead of
/// twice. Apply the fix-up as `max(0.0, xn + yn - 2.0 * g)` — the exact
/// expression `pairwise_sq_dists*` uses — to keep results identical.
void pairwise_gram(linalg::MatrixView x, linalg::MatrixView y,
                   linalg::Matrix& out);

/// Copies rows `idx` of `src` into `out` (idx.size()×src.cols()), the
/// gather step for candidate-set Gram scoring (NN-descent joins, ABOD
/// neighbourhood angle statistics).
void gather_rows(linalg::MatrixView src, std::span<const std::size_t> idx,
                 linalg::Matrix& out);

}  // namespace arams::embed
