// Counting global operator new, linked into the traced binary only.

#include <atomic>
#include <cstdlib>
#include <new>

#include "alloc_count.h"

namespace {

// Relaxed: only the total matters, and library threads may allocate too.
std::atomic<size_t> g_count{0};

void* CountedAlloc(size_t size) {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  g_count.fetch_add(1, std::memory_order_relaxed);
  return p;
}

}  // namespace

size_t perfbench::AllocCount() {
  return g_count.load(std::memory_order_relaxed);
}

void* operator new(size_t size) { return CountedAlloc(size); }
void* operator new[](size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }
