#ifndef PTP_TESTS_ALLOC_COUNTER_H_
#define PTP_TESTS_ALLOC_COUNTER_H_

// Global allocation counter for the disabled-fast-path tests: a sink that is
// switched off must not allocate. Replacing the global operator new/delete
// covers the whole test binary, so include this header in exactly one
// translation unit per binary; only the marked sections read the counter.
//
// Every replaceable form is replaced — plain, array, nothrow, aligned and
// sized — so each allocation and its release go through one malloc/free
// pair. A form left to the runtime (e.g. the nothrow new behind
// std::stable_sort's temporary buffer) would be released by the replaced
// delete, which sanitizers report as an alloc-dealloc mismatch. The counter
// is atomic because pool threads allocate concurrently.

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace {

std::atomic<size_t> g_alloc_count{0};

void* CountedAlloc(std::size_t size) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

void* CountedAlignedAlloc(std::size_t size, std::align_val_t al) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  const std::size_t align = static_cast<std::size_t>(al);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t rounded = (size + align - 1) / align * align;
  return std::aligned_alloc(align, rounded == 0 ? align : rounded);
}

void* OrThrow(void* p) {
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

// Out of line, so the compiler never sees an inlined free() paired with
// the operator new that produced its pointer and warns about a mismatch:
// both sides of every pair are the replacements below.
[[gnu::noinline]] void CountedFree(void* p) noexcept { std::free(p); }

}  // namespace

void* operator new(std::size_t size) { return OrThrow(CountedAlloc(size)); }
void* operator new[](std::size_t size) { return OrThrow(CountedAlloc(size)); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void* operator new(std::size_t size, std::align_val_t al) {
  return OrThrow(CountedAlignedAlloc(size, al));
}
void* operator new[](std::size_t size, std::align_val_t al) {
  return OrThrow(CountedAlignedAlloc(size, al));
}
void* operator new(std::size_t size, std::align_val_t al,
                   const std::nothrow_t&) noexcept {
  return CountedAlignedAlloc(size, al);
}
void* operator new[](std::size_t size, std::align_val_t al,
                     const std::nothrow_t&) noexcept {
  return CountedAlignedAlloc(size, al);
}

void operator delete(void* p) noexcept { CountedFree(p); }
void operator delete[](void* p) noexcept { CountedFree(p); }
void operator delete(void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete[](void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  CountedFree(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  CountedFree(p);
}
void operator delete(void* p, std::align_val_t) noexcept { CountedFree(p); }
void operator delete[](void* p, std::align_val_t) noexcept { CountedFree(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  CountedFree(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  CountedFree(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  CountedFree(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  CountedFree(p);
}

#endif  // PTP_TESTS_ALLOC_COUNTER_H_
