// Tests for linalg::Workspace: slot-reference stability, grow-only byte
// accounting, and the headline guarantee — steady-state FD shrink() performs
// ZERO heap allocations.
//
// The allocation check counts heap allocations through the replacement
// operator new/delete in counting_new.hpp. The test warms a
// FrequentDirections instance past its first few shrink cycles, snapshots
// the counter, streams thousands more rows through, and requires the
// counter not to move.

#include <gtest/gtest.h>

#include "core/fd.hpp"
#include "linalg/matrix.hpp"
#include "linalg/svd.hpp"
#include "linalg/workspace.hpp"
#include "obs/metrics.hpp"
#include "rng/rng.hpp"

#include "counting_new.hpp"

namespace arams::linalg {
namespace {

TEST(Workspace, SlotReferencesSurviveLaterAcquisitions) {
  Workspace ws;
  Matrix& a = ws.mat(0, 8, 8);
  a.fill(1.0);
  const double* a_data = a.data();
  // Acquiring a much higher slot must not move slot 0 (regression: a
  // vector-backed arena reallocated here and left `a` dangling).
  Matrix& b = ws.mat(5, 16, 16);
  b.fill(2.0);
  EXPECT_EQ(a.data(), a_data);
  EXPECT_EQ(&ws.mat(0, 8, 8), &a);
  EXPECT_DOUBLE_EQ(a(7, 7), 1.0);

  auto v = ws.vec(0, 32);
  const double* v_data = v.data();
  (void)ws.vec(3, 64);
  EXPECT_EQ(ws.vec(0, 32).data(), v_data);
}

TEST(Workspace, BytesGrowOnlyAcrossReshapes) {
  Workspace ws;
  (void)ws.mat(0, 64, 64);
  const std::size_t high_water = ws.capacity_bytes();
  EXPECT_GE(high_water, 64u * 64u * sizeof(double));
  // Shrinking the logical shape must not release capacity...
  (void)ws.mat(0, 4, 4);
  EXPECT_EQ(ws.capacity_bytes(), high_water);
  // ...while the honest logical footprint tracks the live shape.
  EXPECT_EQ(ws.bytes(), 4u * 4u * sizeof(double));
  (void)ws.mat(0, 64, 64);
  EXPECT_EQ(ws.capacity_bytes(), high_water);
  EXPECT_EQ(ws.bytes(), 64u * 64u * sizeof(double));
}

TEST(Workspace, SameShapeSvdCycleIsAllocationFree) {
  Rng rng(11);
  Matrix a(48, 96);
  for (std::size_t i = 0; i < a.rows(); ++i) rng.fill_normal(a.row(i));
  Workspace ws;
  SigmaVt out;
  // Warm-up: first call grows every arena slot and the eig output.
  sigma_vt_svd(a, ws, out);
  sigma_vt_svd(a, ws, out);
  const long before = g_heap_allocations.load();
  for (int i = 0; i < 20; ++i) {
    sigma_vt_svd(a, ws, out);
  }
  EXPECT_EQ(g_heap_allocations.load() - before, 0)
      << "workspace-based sigma_vt_svd allocated at steady state";
}

TEST(Workspace, FdShrinkSteadyStateIsAllocationFree) {
  constexpr std::size_t kEll = 24;
  constexpr std::size_t kDim = 160;
  core::FrequentDirections fd(core::FdConfig{kEll, /*fast=*/true});

  // Pre-generate all input rows so the streaming loop itself owns no
  // allocating code.
  Rng rng(7);
  Matrix warmup(kEll * 20, kDim);
  for (std::size_t i = 0; i < warmup.rows(); ++i) {
    rng.fill_normal(warmup.row(i));
  }
  Matrix steady(kEll * 40, kDim);
  for (std::size_t i = 0; i < steady.rows(); ++i) {
    rng.fill_normal(steady.row(i));
  }

  // ~20 shrink cycles of warm-up: grows the 2ℓ buffer, workspace arenas,
  // SVD outputs and resolves metric registrations.
  for (std::size_t i = 0; i < warmup.rows(); ++i) {
    fd.append(warmup.row(i));
  }

  const long allocs_before = g_heap_allocations.load();
  const double ws_bytes_before =
      obs::metrics().gauge("linalg.workspace_bytes").value();
  for (std::size_t i = 0; i < steady.rows(); ++i) {
    fd.append(steady.row(i));
  }
  const long allocs_after = g_heap_allocations.load();
  const double ws_bytes_after =
      obs::metrics().gauge("linalg.workspace_bytes").value();

  EXPECT_EQ(allocs_after - allocs_before, 0)
      << "steady-state shrink() hit the heap";
  EXPECT_EQ(ws_bytes_before, ws_bytes_after)
      << "workspace arena kept growing after warm-up";
  EXPECT_GT(ws_bytes_after, 0.0) << "workspace gauge never published";
}

}  // namespace
}  // namespace arams::linalg
