// netbase/huge_alloc.hpp — page-level allocators for large buffers: 2 MB
// pages for hot tables, and prompt page release for bulk buffers.
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
#include <memory>
#include <new>

#ifdef __linux__
#include <sys/mman.h>
#include <unistd.h>
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

/// Std-allocator for bulk buffers that are dropped in one go while the
/// process runs on: the trace collector's reply log, freed as the traces
/// it folds into are built. glibc keeps a freed block inside a heap
/// resident (it trims only a heap's top), so such a log would still count
/// toward peak RSS beside its traces. deallocate() first hands the block's
/// whole pages back to the kernel, as malloc_trim does for free blocks.
/// Allocation is plain operator new, so allocation-counting hooks see it.
template <typename T>
struct PageReleasingAllocator {
  using value_type = T;

  PageReleasingAllocator() = default;
  template <typename U>
  PageReleasingAllocator(const PageReleasingAllocator<U>&) {}

  T* allocate(std::size_t n) { return static_cast<T*>(::operator new(n * sizeof(T))); }

  void deallocate(T* p, std::size_t n) noexcept {
#ifdef __linux__
    static const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
    void* first = p;
    std::size_t bytes = n * sizeof(T);
    if (std::align(page, page, first, bytes))
      ::madvise(first, bytes / page * page, MADV_DONTNEED);
#endif
    ::operator delete(p);
  }

  template <typename U>
  friend bool operator==(const PageReleasingAllocator&, const PageReleasingAllocator<U>&) {
    return true;
  }
};

}  // namespace beholder6::netbase
