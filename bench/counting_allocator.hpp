// Counting replacement of the global allocator, shared by the standalone
// binaries that assert the hot path's zero-allocation discipline
// (bench/bench_hotpath.cpp and tests/test_hotpath_alloc.cpp).
//
// Include EXACTLY ONCE per binary: this header *defines* the replaceable
// global operator new/delete set. Every allocation — plain, array, aligned
// and nothrow forms alike — bumps icsfuzz::bench_alloc::g_allocations;
// measure a window by differencing the counter around it.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace icsfuzz::bench_alloc {

inline std::atomic<std::uint64_t> g_allocations{0};

}  // namespace icsfuzz::bench_alloc

namespace icsfuzz::bench_alloc {

inline void* counted_malloc(std::size_t size) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

inline void* counted_aligned_alloc(std::size_t size,
                                   std::align_val_t align) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  // aligned_alloc requires the size to be a multiple of the alignment.
  const std::size_t alignment = static_cast<std::size_t>(align);
  const std::size_t rounded =
      ((size == 0 ? 1 : size) + alignment - 1) / alignment * alignment;
  return std::aligned_alloc(alignment, rounded);
}

}  // namespace icsfuzz::bench_alloc

[[gnu::noinline]] void* operator new(std::size_t size) {
  if (void* p = icsfuzz::bench_alloc::counted_malloc(size)) return p;
  throw std::bad_alloc();
}

[[gnu::noinline]] void* operator new[](std::size_t size) {
  return ::operator new(size);
}

[[gnu::noinline]] void* operator new(std::size_t size,
                                     std::align_val_t align) {
  if (void* p = icsfuzz::bench_alloc::counted_aligned_alloc(size, align)) {
    return p;
  }
  throw std::bad_alloc();
}

[[gnu::noinline]] void* operator new[](std::size_t size,
                                       std::align_val_t align) {
  return ::operator new(size, align);
}

// The nothrow forms are what std::stable_sort's temporary buffer and
// std::get_temporary_buffer call; without them those allocations would go
// uncounted.
[[gnu::noinline]] void* operator new(std::size_t size,
                                     const std::nothrow_t&) noexcept {
  return icsfuzz::bench_alloc::counted_malloc(size);
}

[[gnu::noinline]] void* operator new[](std::size_t size,
                                       const std::nothrow_t&) noexcept {
  return icsfuzz::bench_alloc::counted_malloc(size);
}

[[gnu::noinline]] void* operator new(std::size_t size, std::align_val_t align,
                                     const std::nothrow_t&) noexcept {
  return icsfuzz::bench_alloc::counted_aligned_alloc(size, align);
}

[[gnu::noinline]] void* operator new[](std::size_t size, std::align_val_t align,
                                       const std::nothrow_t&) noexcept {
  return icsfuzz::bench_alloc::counted_aligned_alloc(size, align);
}

// Every form releases with free(). All of them stay out of line: inlined
// into a caller, gcc would see malloc() paired with operator delete, or
// operator new paired with free(), and report -Wmismatched-new-delete,
// although the pairs are consistent here.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::size_t,
                                       std::align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t,
                                         std::align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p,
                                       const std::nothrow_t&) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p,
                                         const std::nothrow_t&) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::align_val_t,
                                       const std::nothrow_t&) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::align_val_t,
                                         const std::nothrow_t&) noexcept {
  std::free(p);
}
