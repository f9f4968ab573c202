// tests/support/mapped.hpp — the counting tests' view of memory that
// netbase::HugePageAllocator maps past operator new: a counting
// operator new never sees those blocks, so allocation bounds and leak
// checks add these.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "netbase/huge_alloc.hpp"

namespace beholder6::test_support {

/// Bytes held in mappings made by HugePageAllocator right now (whole
/// 2 MB-padded extents). Always 0 off Linux.
inline std::size_t mapped_bytes() {
  return netbase::detail::g_mapped_bytes.load(std::memory_order_relaxed);
}

/// Mappings HugePageAllocator has ever made. Always 0 off Linux.
inline std::uint64_t mappings() {
  return netbase::detail::g_mappings.load(std::memory_order_relaxed);
}

}  // namespace beholder6::test_support
