// netbase/huge_alloc.hpp — 2 MB-page backing for large hot tables.
//
// The simnet's per-campaign state (route cache, negative caches, learned
// interfaces) reaches tens to hundreds of megabytes and is accessed in
// random probe order. On 4 KB pages that working set costs a dTLB miss —
// a page walk — per dereference, which on large-LLC machines dominates the
// fetch itself. Backing allocations above a threshold with 2 MB-aligned
// memory and MADV_HUGEPAGE keeps the whole table under a handful of TLB
// entries (benchmark/run.py is the regression harness that shows the
// difference).
//
// Stateless std-allocator; small allocations fall through to operator new,
// and non-Linux builds compile to exactly that fallback plus alignment.
#pragma once

#include <cstddef>
#include <cstdlib>
#include <new>

#ifdef __linux__
#include <sys/mman.h>
#endif

namespace beholder6::netbase {

template <typename T>
struct HugePageAllocator {
  using value_type = T;

  static constexpr std::size_t kHugeThreshold = std::size_t{1} << 20;  // 1 MB
  static constexpr std::size_t kHugeAlign = std::size_t{2} << 20;      // 2 MB

  HugePageAllocator() = default;
  template <typename U>
  HugePageAllocator(const HugePageAllocator<U>&) {}

  T* allocate(std::size_t n) {
    const std::size_t bytes = n * sizeof(T);
    if (bytes >= kHugeThreshold) {
      const std::size_t padded = (bytes + kHugeAlign - 1) & ~(kHugeAlign - 1);
      // Via aligned operator new (not aligned_alloc) so binaries that
      // replace the global allocator — the counting hook in
      // tests/simnet/steady_state_alloc_test.cpp — observe this path too.
      void* p = ::operator new(padded, std::align_val_t{kHugeAlign});
#ifdef __linux__
      ::madvise(p, padded, MADV_HUGEPAGE);
#endif
      return static_cast<T*>(p);
    }
    if constexpr (alignof(T) > __STDCPP_DEFAULT_NEW_ALIGNMENT__)
      return static_cast<T*>(::operator new(bytes, std::align_val_t{alignof(T)}));
    else
      return static_cast<T*>(::operator new(bytes));
  }

  void deallocate(T* p, std::size_t n) noexcept {
    if (n * sizeof(T) >= kHugeThreshold) {
      ::operator delete(p, std::align_val_t{kHugeAlign});
    } else if constexpr (alignof(T) > __STDCPP_DEFAULT_NEW_ALIGNMENT__) {
      ::operator delete(p, std::align_val_t{alignof(T)});
    } else {
      ::operator delete(p);
    }
  }

  template <typename U>
  friend bool operator==(const HugePageAllocator&, const HugePageAllocator<U>&) {
    return true;
  }
};

}  // namespace beholder6::netbase
