#pragma once
// Replacement global operator new/delete that count every heap allocation,
// for the "steady state performs no allocations" checks: snapshot
// g_heap_allocations, run the loop, require the counter not to move.
//
// Include from exactly one translation unit of a test binary. Each gtest
// binary is its own process, so the override is hermetic to that binary.
//
// Every operator is kept out of line: inlined into a caller, GCC pairs the
// malloc/free inside with the operator delete/new outside and reports
// -Wmismatched-new-delete, although both halves are this file's.

#include <atomic>
#include <cstdlib>
#include <new>

namespace {
std::atomic<long> g_heap_allocations{0};
}  // namespace

[[gnu::noinline]] void* operator new(std::size_t n) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t n) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new(std::size_t n, std::align_val_t a) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(a), n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::size_t,
                                       std::align_val_t) noexcept {
  std::free(p);
}
