#include "alloc_count.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_count{0};
std::atomic<std::uint64_t> g_bytes{0};

void note(std::size_t n) noexcept {
  if (!g_counting.load(std::memory_order_relaxed)) return;
  g_count.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(n, std::memory_order_relaxed);
}

}  // namespace

namespace costbench::alloc {

void set_counting(bool on) noexcept {
  g_counting.store(on, std::memory_order_relaxed);
}
std::uint64_t count() noexcept {
  return g_count.load(std::memory_order_relaxed);
}
std::uint64_t bytes() noexcept {
  return g_bytes.load(std::memory_order_relaxed);
}

}  // namespace costbench::alloc

// Out of line: GCC 12 otherwise pairs the malloc in an inlined new with the
// free in an inlined delete and reports -Wmismatched-new-delete.
__attribute__((noinline)) void* operator new(std::size_t n) {
  note(n);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
__attribute__((noinline)) void* operator new(std::size_t n,
                                             std::align_val_t align) {
  note(n);
  const auto a = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(a, (n + a - 1) & ~(a - 1))) return p;
  throw std::bad_alloc();
}
__attribute__((noinline)) void operator delete(void* p) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p,
                                               std::align_val_t) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p, std::size_t,
                                               std::align_val_t) noexcept {
  std::free(p);
}
