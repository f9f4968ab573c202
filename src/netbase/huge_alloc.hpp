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
// Each such block is its own anonymous mapping, not a glibc chunk. glibc
// serves a large request by mmap too, but when it frees an mmapped chunk
// it raises its mmap threshold to that chunk's size (up to 32 MB). Once a
// table had grown and freed its old storage, later tables of that size
// came from the per-thread malloc arenas, where freed tables stay
// resident, so peak RSS depended on which worker freed which table when.
// A block mapped here goes back to the kernel on deallocate, at once.
//
// Mapped blocks bypass operator new, so allocation-counting hooks do not
// see them; detail::g_mapped_bytes and g_mappings count them instead.
//
// Stateless std-allocator; small allocations fall through to operator new,
// and non-Linux builds compile to exactly that fallback plus alignment.
// release_pages() hands part of a live block's pages back early, for a
// buffer consumed front to back (the parallel runner's reply runs).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>

#ifdef __linux__
#include <sys/mman.h>
#include <unistd.h>
#endif

namespace beholder6::netbase {

inline constexpr std::size_t kHugeThreshold = std::size_t{1} << 20;  // 1 MB
inline constexpr std::size_t kHugeAlign = std::size_t{2} << 20;      // 2 MB

namespace detail {

// Bytes held in mappings made by HugePageAllocator right now (whole 2 MB-
// padded extents), and mappings it has ever made. Both stay 0 off Linux.
inline std::atomic<std::size_t> g_mapped_bytes{0};
inline std::atomic<std::uint64_t> g_mappings{0};

inline std::size_t huge_extent(std::size_t bytes) {
  return (bytes + kHugeAlign - 1) & ~(kHugeAlign - 1);
}

/// Map a 2 MB-aligned extent of huge_extent(bytes): map one alignment more
/// than that, then unmap the misaligned head and the rest of the slack.
inline void* map_huge(std::size_t bytes) {
#ifdef __linux__
  const std::size_t extent = huge_extent(bytes);
  std::size_t space = extent + kHugeAlign;
  void* const raw = ::mmap(nullptr, space, PROT_READ | PROT_WRITE,
                           MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (raw == MAP_FAILED) throw std::bad_alloc{};
  void* p = raw;
  std::align(kHugeAlign, extent, p, space);  // the slack always suffices
  const auto head =
      static_cast<std::size_t>(static_cast<char*>(p) - static_cast<char*>(raw));
  if (head != 0) ::munmap(raw, head);
  ::munmap(static_cast<char*>(p) + extent, kHugeAlign - head);
  ::madvise(p, extent, MADV_HUGEPAGE);
  g_mapped_bytes.fetch_add(extent, std::memory_order_relaxed);
  g_mappings.fetch_add(1, std::memory_order_relaxed);
  return p;
#else
  return ::operator new(bytes, std::align_val_t{kHugeAlign});
#endif
}

inline void unmap_huge(void* p, std::size_t bytes) noexcept {
#ifdef __linux__
  const std::size_t extent = huge_extent(bytes);
  ::munmap(p, extent);
  g_mapped_bytes.fetch_sub(extent, std::memory_order_relaxed);
#else
  (void)bytes;
  ::operator delete(p, std::align_val_t{kHugeAlign});
#endif
}

}  // namespace detail

/// Hand the whole pages inside [p, p + bytes) back to the kernel
/// (madvise MADV_DONTNEED). They stay mapped and read back as zeros when
/// touched again; the partial pages at either end are left alone, so every
/// byte outside the range keeps its value. Does nothing off Linux.
inline void release_pages(void* p, std::size_t bytes) noexcept {
#ifdef __linux__
  static const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  if (std::align(page, page, p, bytes)) ::madvise(p, bytes / page * page, MADV_DONTNEED);
#else
  (void)p;
  (void)bytes;
#endif
}

/// Std-allocator for the large hot tables: a block of kHugeThreshold
/// bytes or more is a 2 MB-aligned mapping of its own with MADV_HUGEPAGE,
/// unmapped on deallocate; smaller blocks come from operator new.
template <typename T>
struct HugePageAllocator {
  using value_type = T;

  HugePageAllocator() = default;
  template <typename U>
  HugePageAllocator(const HugePageAllocator<U>&) {}

  T* allocate(std::size_t n) {
    const std::size_t bytes = n * sizeof(T);
    if (bytes >= kHugeThreshold) return static_cast<T*>(detail::map_huge(bytes));
    if constexpr (alignof(T) > __STDCPP_DEFAULT_NEW_ALIGNMENT__)
      return static_cast<T*>(::operator new(bytes, std::align_val_t{alignof(T)}));
    else
      return static_cast<T*>(::operator new(bytes));
  }

  void deallocate(T* p, std::size_t n) noexcept {
    const std::size_t bytes = n * sizeof(T);
    if (bytes >= kHugeThreshold) {
      detail::unmap_huge(p, bytes);
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
    release_pages(p, n * sizeof(T));
    ::operator delete(p);
  }

  template <typename U>
  friend bool operator==(const PageReleasingAllocator&, const PageReleasingAllocator<U>&) {
    return true;
  }
};

}  // namespace beholder6::netbase
