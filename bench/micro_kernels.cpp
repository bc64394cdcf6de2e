// Micro-kernel benchmarks (google-benchmark): the primitives that dominate
// the sketching pipeline — GEMM, row Gram, Gram-trick SVD vs Jacobi SVD,
// FD append throughput, priority-sampler push throughput.

#include <benchmark/benchmark.h>

#include "core/fd.hpp"
#include "core/priority_sampler.hpp"
#include "linalg/blas.hpp"
#include "linalg/eigen_sym.hpp"
#include "linalg/svd.hpp"
#include "linalg/workspace.hpp"
#include "rng/rng.hpp"

namespace {

using namespace arams;
using linalg::Matrix;

Matrix random_matrix(std::size_t r, std::size_t c, std::uint64_t seed) {
  Matrix m(r, c);
  Rng rng(seed);
  for (std::size_t i = 0; i < r; ++i) {
    rng.fill_normal(m.row(i));
  }
  return m;
}

void BM_Gemm(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Matrix a = random_matrix(n, n, 1);
  const Matrix b = random_matrix(n, n, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::matmul(a, b));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n * n * n));
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(128)->Arg(256);

void BM_GemmTn(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Matrix a = random_matrix(n, n, 11);
  const Matrix b = random_matrix(n, n, 12);
  Matrix out;
  for (auto _ : state) {
    linalg::matmul_tn(a, b, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n * n * n));
}
BENCHMARK(BM_GemmTn)->Arg(64)->Arg(128)->Arg(256);

void BM_GramRows(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const Matrix a = random_matrix(m, 2048, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::gram_rows(a));
  }
}
BENCHMARK(BM_GramRows)->Arg(16)->Arg(64)->Arg(128);

void BM_SigmaVtSvd(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const Matrix a = random_matrix(m, 2048, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::sigma_vt_svd(a));
  }
}
BENCHMARK(BM_SigmaVtSvd)->Arg(16)->Arg(64)->Arg(128);

// Same decomposition through a caller-owned Workspace: after the first
// iteration every scratch buffer is recycled, so this isolates the pure
// compute cost the FD shrink loop pays at steady state.
void BM_SigmaVtSvdWorkspace(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const Matrix a = random_matrix(m, 2048, 4);
  linalg::Workspace ws;
  linalg::SigmaVt out;
  for (auto _ : state) {
    linalg::sigma_vt_svd(a, ws, out);
    benchmark::DoNotOptimize(out.w.data());
  }
}
BENCHMARK(BM_SigmaVtSvdWorkspace)->Arg(16)->Arg(64)->Arg(128);

void BM_JacobiSvdReference(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  // Same shape as the Gram-trick case: shows why the production kernel
  // avoids the O(m·d²) path.
  const Matrix a = random_matrix(m, 512, 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::jacobi_svd(a));
  }
}
BENCHMARK(BM_JacobiSvdReference)->Arg(16)->Arg(32);

void BM_JacobiEig(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Matrix a = linalg::gram_rows(random_matrix(n, 2 * n, 6));
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::jacobi_eigen_symmetric(a));
  }
}
BENCHMARK(BM_JacobiEig)->Arg(32)->Arg(64)->Arg(128);

// Head-to-head symmetric eigensolver comparison on the Gram matrices the
// FD shrink produces. Both run through the eigen_symmetric dispatch with
// a caller-owned workspace (steady-state, allocation-free), values +
// full eigenvectors — the shrink's actual request shape.
void eig_sym_method(benchmark::State& state, linalg::EigMethod method) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Matrix a = linalg::gram_rows(random_matrix(n, 2 * n, 6));
  linalg::Workspace ws;
  linalg::SymmetricEig out;
  linalg::EigenConfig cfg;
  cfg.method = method;
  for (auto _ : state) {
    linalg::eigen_symmetric(linalg::MatrixView(a), ws, out, cfg);
    benchmark::DoNotOptimize(out.vectors.data());
  }
}

void BM_EigSymJacobi(benchmark::State& state) {
  eig_sym_method(state, linalg::EigMethod::kJacobi);
}
BENCHMARK(BM_EigSymJacobi)->Arg(64)->Arg(128)->Arg(256)->Arg(512);

void BM_EigSymTridiag(benchmark::State& state) {
  eig_sym_method(state, linalg::EigMethod::kTridiag);
}
BENCHMARK(BM_EigSymTridiag)->Arg(64)->Arg(128)->Arg(256)->Arg(512);

// Eigenvalues only: the tridiagonal path drops the O(n³) rotation
// accumulation entirely (dsterf-style O(n²) iteration).
void BM_EigSymTridiagValuesOnly(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Matrix a = linalg::gram_rows(random_matrix(n, 2 * n, 6));
  linalg::Workspace ws;
  linalg::SymmetricEig out;
  linalg::EigenConfig cfg;
  cfg.method = linalg::EigMethod::kTridiag;
  cfg.vectors = false;
  for (auto _ : state) {
    linalg::eigen_symmetric(linalg::MatrixView(a), ws, out, cfg);
    benchmark::DoNotOptimize(out.values.data());
  }
}
BENCHMARK(BM_EigSymTridiagValuesOnly)->Arg(64)->Arg(128)->Arg(256)->Arg(512);

// End-to-end FD shrink under each eigensolver: fill the 2ℓ buffer, then
// time exactly one shrink per iteration (ℓ fresh rows re-fill the buffer
// each pass). ℓ=64 on 1024-dim rows is the paper's operating regime.
void fd_shrink_method(benchmark::State& state, const char* method) {
  ::setenv("ARAMS_EIG_METHOD", method, /*overwrite=*/1);
  constexpr std::size_t kEll = 64;
  constexpr std::size_t kDim = 1024;
  const Matrix block = random_matrix(kEll, kDim, 42);
  core::FrequentDirections fd(core::FdConfig{kEll, true});
  fd.append_batch(random_matrix(2 * kEll - 1, kDim, 43));  // buffer ~full
  for (auto _ : state) {
    fd.append_batch(block);  // crosses 2ℓ: exactly one shrink
    benchmark::DoNotOptimize(fd.occupied_rows());
  }
  ::unsetenv("ARAMS_EIG_METHOD");
}

void BM_FdShrinkJacobi(benchmark::State& state) {
  fd_shrink_method(state, "jacobi");
}
BENCHMARK(BM_FdShrinkJacobi);

void BM_FdShrinkTridiag(benchmark::State& state) {
  fd_shrink_method(state, "tridiag");
}
BENCHMARK(BM_FdShrinkTridiag);

void BM_RandomizedSvd(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  const Matrix a = random_matrix(512, 256, 9);
  Rng rng(10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::randomized_svd(a, k, rng));
  }
}
BENCHMARK(BM_RandomizedSvd)->Arg(8)->Arg(16)->Arg(32);

void BM_FdAppendThroughput(benchmark::State& state) {
  const auto ell = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kDim = 1024;
  const Matrix rows = random_matrix(512, kDim, 7);
  for (auto _ : state) {
    core::FrequentDirections fd(core::FdConfig{ell, true});
    fd.append_batch(rows);
    benchmark::DoNotOptimize(fd.occupied_rows());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 512);
}
BENCHMARK(BM_FdAppendThroughput)->Arg(16)->Arg(32)->Arg(64);

void BM_PrioritySamplerPush(benchmark::State& state) {
  const Matrix rows = random_matrix(4096, 256, 8);
  for (auto _ : state) {
    core::PrioritySamplerConfig config;
    config.capacity = 1024;
    core::PrioritySampler sampler(config);
    sampler.push_batch(rows);
    benchmark::DoNotOptimize(sampler.take());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_PrioritySamplerPush);

}  // namespace

BENCHMARK_MAIN();
