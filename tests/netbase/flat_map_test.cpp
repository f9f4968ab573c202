// Unit tests for netbase::FlatMap / FlatSet — the open-addressing
// containers the simnet hot path runs on. Behaviour is checked against the
// std::unordered_* containers they replaced, including the property the
// swap relies on: the *contents* after any insert/erase sequence are
// identical, whatever order iteration yields them in.
#include "netbase/flat_map.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <unordered_map>
#include <vector>

#include "netbase/ipv6.hpp"
#include "netbase/rng.hpp"
#include "support/literals.hpp"

namespace beholder6::netbase {
namespace {

TEST(FlatMapTest, InsertFindAt) {
  FlatMap<std::uint64_t, int> m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.find(7), m.end());

  auto [it, fresh] = m.emplace(7, 70);
  EXPECT_TRUE(fresh);
  EXPECT_EQ(it->second, 70);
  EXPECT_EQ(m.size(), 1u);

  // Duplicate insert keeps the first value.
  auto [it2, fresh2] = m.emplace(7, 99);
  EXPECT_FALSE(fresh2);
  EXPECT_EQ(it2->second, 70);
  EXPECT_EQ(m.size(), 1u);

  EXPECT_TRUE(m.contains(7));
  EXPECT_FALSE(m.contains(8));
  EXPECT_EQ(m.at(7), 70);
  EXPECT_THROW((void)m.at(8), std::out_of_range);

  m[8] = 80;  // operator[] default-constructs then assigns
  EXPECT_EQ(m.at(8), 80);
  m[7] = 71;  // ... and references an existing entry
  EXPECT_EQ(m.at(7), 71);
}

TEST(FlatMapTest, MatchesUnorderedMapUnderRandomChurn) {
  FlatMap<std::uint64_t, std::uint64_t> flat;
  std::unordered_map<std::uint64_t, std::uint64_t> ref;
  Rng rng{42};
  for (int step = 0; step < 20000; ++step) {
    const auto key = rng.below(512);  // small key space forces collisions
    if (rng.chance(0.3)) {
      EXPECT_EQ(flat.erase(key), ref.erase(key));
    } else {
      const auto val = rng();
      const bool fresh = flat.emplace(key, val).second;
      EXPECT_EQ(fresh, ref.emplace(key, val).second);
    }
  }
  EXPECT_EQ(flat.size(), ref.size());
  // Same contents, independent of either container's iteration order.
  std::map<std::uint64_t, std::uint64_t> flat_sorted(flat.begin(), flat.end());
  std::map<std::uint64_t, std::uint64_t> ref_sorted(ref.begin(), ref.end());
  EXPECT_EQ(flat_sorted, ref_sorted);
  for (const auto& [k, v] : ref) EXPECT_EQ(flat.at(k), v);
}

TEST(FlatMapTest, EraseLeavesProbeChainsIntact) {
  // All keys collide into one chain under a constant hash; erasing from the
  // middle must not hide the entries probed past the tombstone.
  struct OneBucketHash {
    std::size_t operator()(std::uint64_t) const noexcept { return 0; }
  };
  FlatMap<std::uint64_t, int, OneBucketHash> m;
  for (std::uint64_t k = 0; k < 8; ++k) m.emplace(k, static_cast<int>(k));
  EXPECT_EQ(m.erase(3), 1u);
  EXPECT_EQ(m.erase(3), 0u);
  for (std::uint64_t k = 0; k < 8; ++k)
    EXPECT_EQ(m.contains(k), k != 3) << "key " << k;
  // The tombstone is reused by the next insert of a colliding key.
  m.emplace(100, 100);
  EXPECT_TRUE(m.contains(100));
  for (std::uint64_t k = 0; k < 8; ++k) EXPECT_EQ(m.contains(k), k != 3);
}

TEST(FlatMapTest, RehashPreservesContentsAndPurgesTombstones) {
  FlatMap<std::uint64_t, std::uint64_t> m;
  for (std::uint64_t k = 0; k < 1000; ++k) m.emplace(k, k * k);
  for (std::uint64_t k = 0; k < 1000; k += 2) m.erase(k);
  m.rehash();
  EXPECT_EQ(m.size(), 500u);
  for (std::uint64_t k = 0; k < 1000; ++k) {
    EXPECT_EQ(m.contains(k), k % 2 == 1);
    if (k % 2 == 1) {
      EXPECT_EQ(m.at(k), k * k);
    }
  }
}

TEST(FlatMapTest, ReserveAvoidsGrowth) {
  FlatMap<std::uint64_t, std::uint64_t> m;
  m.reserve(10000);
  const auto cap = m.capacity();
  for (std::uint64_t k = 0; k < 10000; ++k) m.emplace(k, k);
  EXPECT_EQ(m.capacity(), cap) << "reserve(n) must make n inserts rehash-free";
}

TEST(FlatMapTest, ClearKeepsCapacityAndForgetsEverything) {
  FlatMap<std::uint64_t, int> m;
  for (std::uint64_t k = 0; k < 100; ++k) m.emplace(k, 1);
  const auto cap = m.capacity();
  m.clear();
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.capacity(), cap);
  EXPECT_FALSE(m.contains(5));
  EXPECT_EQ(m.begin(), m.end());
  m.emplace(5, 2);
  EXPECT_EQ(m.at(5), 2);
}

TEST(FlatMapTest, Ipv6KeysWithAddrHash) {
  FlatMap<Ipv6Addr, std::uint64_t, Ipv6AddrHash> m;
  std::vector<Ipv6Addr> addrs;
  for (std::uint64_t i = 0; i < 500; ++i)
    addrs.push_back(Ipv6Addr::from_halves(splitmix64(i), splitmix64(i ^ 0xa5)));
  for (std::size_t i = 0; i < addrs.size(); ++i) m.emplace(addrs[i], i);
  for (std::size_t i = 0; i < addrs.size(); ++i) EXPECT_EQ(m.at(addrs[i]), i);
  // Structured-binding iteration (how learned_interfaces() is consumed).
  std::set<Ipv6Addr> seen;
  for (const auto& [addr, idx] : m) {
    EXPECT_EQ(m.at(addr), idx);
    seen.insert(addr);
  }
  EXPECT_EQ(seen.size(), addrs.size());
}

TEST(FlatSetTest, InsertEraseContains) {
  FlatSet<std::uint64_t> s;
  EXPECT_TRUE(s.insert(1).second);
  EXPECT_FALSE(s.insert(1).second);
  EXPECT_TRUE(s.insert(2).second);
  EXPECT_TRUE(s.contains(1));
  EXPECT_TRUE(s.contains(2));
  EXPECT_FALSE(s.contains(3));
  EXPECT_EQ(s.erase(1), 1u);
  EXPECT_FALSE(s.contains(1));
  EXPECT_EQ(s.size(), 1u);
}

TEST(FlatSetTest, MatchesUnorderedSetAcrossGrowth) {
  FlatSet<std::uint64_t> flat;
  std::set<std::uint64_t> ref;
  Rng rng{7};
  for (int i = 0; i < 5000; ++i) {
    const auto k = rng.below(3000);
    EXPECT_EQ(flat.insert(k).second, ref.insert(k).second);
  }
  EXPECT_EQ(flat.size(), ref.size());
  std::set<std::uint64_t> flat_sorted(flat.begin(), flat.end());
  EXPECT_EQ(flat_sorted, ref);
}

TEST(FlatSetTest, FullAddressKeysDoNotCollide) {
  // The nd-negative-cache regression this PR fixes: two distinct addresses
  // must never suppress each other, which 64-bit hashed keys cannot
  // guarantee but full-width keys can.
  FlatSet<Ipv6Addr, Ipv6AddrHash> s;
  const auto a = test_support::addr("2001:db8::1");
  const auto b = test_support::addr("2001:db8::2");
  s.insert(a);
  EXPECT_TRUE(s.contains(a));
  EXPECT_FALSE(s.contains(b));
}

}  // namespace
}  // namespace beholder6::netbase
