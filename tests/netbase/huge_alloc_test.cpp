// Unit tests for netbase::HugePageAllocator's mapped path: a block of
// kHugeThreshold bytes or more is a 2 MB-aligned anonymous mapping of its
// own, returned to the kernel on deallocate. LeakSanitizer cannot see
// mappings, so the leak checks here read test_support::mapped_bytes()
// instead: after growing, rehashing, invalidating and destroying the
// containers that use the allocator, it must be back where it started.
// release_pages must hand back only the whole pages inside its range.
#include "netbase/huge_alloc.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "netbase/flat_map.hpp"
#include "simnet/route_cache.hpp"
#include "support/flat_rebuild.hpp"
#include "support/mapped.hpp"

namespace beholder6::netbase {
namespace {

using test_support::mapped_bytes;
using test_support::mappings;

std::size_t extent_of(std::size_t bytes) {
  return (bytes + kHugeAlign - 1) / kHugeAlign * kHugeAlign;
}

class HugeAllocTest : public ::testing::Test {
 protected:
  void SetUp() override {
#ifndef __linux__
    GTEST_SKIP() << "large blocks are mapped on Linux only";
#endif
  }
};

TEST_F(HugeAllocTest, LargeBlocksAreAlignedWritableMappings) {
  HugePageAllocator<unsigned char> alloc;
  for (const std::size_t bytes : {kHugeThreshold, 5 * kHugeThreshold + 3}) {
    const auto bytes_before = mapped_bytes();
    const auto maps_before = mappings();
    unsigned char* p = alloc.allocate(bytes);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % kHugeAlign, 0u);
    EXPECT_EQ(mappings(), maps_before + 1);
    EXPECT_EQ(mapped_bytes(), bytes_before + extent_of(bytes));
    std::memset(p, 0xa5, bytes);
    EXPECT_EQ(p[0], 0xa5);
    EXPECT_EQ(p[bytes - 1], 0xa5);
    alloc.deallocate(p, bytes);
    EXPECT_EQ(mapped_bytes(), bytes_before);
  }
}

TEST_F(HugeAllocTest, SmallBlocksMakeNoMapping) {
  HugePageAllocator<unsigned char> alloc;
  const auto maps_before = mappings();
  unsigned char* p = alloc.allocate(kHugeThreshold - 1);
  std::memset(p, 1, kHugeThreshold - 1);
  alloc.deallocate(p, kHugeThreshold - 1);
  EXPECT_EQ(mappings(), maps_before);
}

TEST_F(HugeAllocTest, GrowingVectorReturnsItsOldExtents) {
  const auto start = mapped_bytes();
  const auto maps_before = mappings();
  {
    std::vector<std::uint64_t, HugePageAllocator<std::uint64_t>> v;
    for (std::uint64_t i = 0; i < (std::uint64_t{1} << 20); ++i) v.push_back(i);
    EXPECT_GE(mappings(), maps_before + 3) << "doubled from 1 MB to 8 MB";
    EXPECT_EQ(mapped_bytes(), start + extent_of(v.capacity() * sizeof(std::uint64_t)));
    EXPECT_EQ(v.back(), (std::uint64_t{1} << 20) - 1);
  }
  EXPECT_EQ(mapped_bytes(), start);
}

TEST_F(HugeAllocTest, TablesLeaveNoMappingBehind) {
  const auto start = mapped_bytes();
  const auto maps_before = mappings();
  {
    FlatMap<std::uint64_t, std::uint64_t> map;
    for (std::uint64_t i = 0; i < 100'000; ++i) map.emplace(i, i * 3);
    for (std::uint64_t i = 0; i < 100'000; i += 2) map.erase(i);
    test_support::rebuild(map);
    EXPECT_EQ(map.size(), 50'000u);
    EXPECT_EQ(map.at(99'999), 299'997u);

    // 64-byte slots: 30,000 routes take a 4 MB table, past three grows.
    simnet::RouteCache cache;
    simnet::Path path;
    path.hops = {{Ipv6Addr::from_halves(0x2001'0db8ULL << 32, 1), 1},
                 {Ipv6Addr::from_halves(0x2001'0db8ULL << 32, 2), 2}};
    for (std::uint64_t i = 0; i < 30'000; ++i)
      cache.insert({i, i % 4}, path);
    EXPECT_EQ(cache.invalidate_cells(1, 1), 15'000u);  // every odd cell
    EXPECT_EQ(cache.size(), 15'000u);
    EXPECT_TRUE(cache.find({2, 2}).has_value());
    EXPECT_FALSE(cache.find({3, 3}).has_value());
    EXPECT_GT(mapped_bytes(), start);
  }
  EXPECT_GT(mappings(), maps_before);
  EXPECT_EQ(mapped_bytes(), start);
}

TEST_F(HugeAllocTest, ReleasePagesKeepsThePartialPagesAtBothEnds) {
#ifdef __linux__
  const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  HugePageAllocator<unsigned char> alloc;
  const std::size_t bytes = kHugeThreshold;  // a mapping: pages from its start
  unsigned char* p = alloc.allocate(bytes);
  std::memset(p, 0xa5, bytes);
  // Half a page into page 1 up to half a page into page 5: only pages 2-4
  // lie wholly inside, so only they go back (and read back as zeros).
  release_pages(p + page + page / 2, 4 * page);
  std::size_t kept_wrong = 0, zero_wrong = 0;
  for (std::size_t i = 0; i < bytes; ++i) {
    if (i >= 2 * page && i < 5 * page)
      zero_wrong += p[i] != 0;
    else
      kept_wrong += p[i] != 0xa5;
  }
  EXPECT_EQ(kept_wrong, 0u) << "a byte outside the whole pages changed";
  EXPECT_EQ(zero_wrong, 0u) << "a whole page inside the range was kept";
  // A range that holds no whole page releases nothing.
  std::memset(p, 0x5a, 2 * page);
  release_pages(p + 1, page);
  release_pages(p, page - 1);
  EXPECT_EQ(p[0], 0x5a);
  EXPECT_EQ(p[page], 0x5a);
  EXPECT_EQ(p[page - 1], 0x5a);
  alloc.deallocate(p, bytes);
#endif
}

}  // namespace
}  // namespace beholder6::netbase
