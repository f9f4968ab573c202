// netbase/prefetch.hpp — software prefetch hints for lookahead pipelines.
//
// A hint starts pulling memory toward the cache and does nothing else: it
// loads no value, never faults, and cannot change a result, so a wrong or
// stale hint costs a few wasted line fills. Yarrp6Source's one-poll
// lookahead and CampaignReactor::step's lookahead (docs/ARCHITECTURE.md,
// "Lookahead prefetch") are built from these.
#pragma once

#include <cstddef>

namespace beholder6::netbase {

inline constexpr std::size_t kCacheLine = 64;

/// Start pulling the cache line that holds `p`.
///
/// Every hint in the library goes through here, never through a bare
/// __builtin_prefetch. GCC models the builtin as touching no memory, so
/// its pure/const discovery marks a function that only prefetches as
/// `const` and then deletes each call to it, since the result is unused:
/// optimized builds silently lose the hint. The empty volatile asm is a
/// side effect the optimizer must keep; it emits no instruction.
inline void prefetch_line(const void* p) {
  __builtin_prefetch(p);
  asm volatile("" : : "r"(p));
}

/// Start pulling every cache line that [p, p + bytes) touches: one hint
/// per 64-byte step, plus the last byte for a range that starts mid-line.
/// Null or empty ranges are a no-op.
inline void prefetch_range(const void* p, std::size_t bytes) {
  if (p == nullptr || bytes == 0) return;
  const auto* b = static_cast<const char*>(p);
  for (std::size_t off = 0; off < bytes; off += kCacheLine)
    prefetch_line(b + off);
  prefetch_line(b + bytes - 1);
}

/// Start pulling every cache line of `*p` (null: no-op).
template <typename T>
inline void prefetch_object(const T* p) {
  prefetch_range(p, sizeof(T));
}

}  // namespace beholder6::netbase
