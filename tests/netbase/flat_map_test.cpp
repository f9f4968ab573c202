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
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "netbase/ipv6.hpp"
#include "netbase/rng.hpp"
#include "support/flat_rebuild.hpp"
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
  test_support::rebuild(m);
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

TEST(FlatMapTest, ConstantTopBitsShareOneTag) {
  // Every key gets the same control-byte tag, so each probe falls back to
  // comparing keys over the whole run; contents must still match an oracle
  // through growth, erases and tombstone reuse.
  struct OneTagHash {
    std::size_t operator()(std::uint64_t k) const noexcept {
      return static_cast<std::size_t>(splitmix64(k) >> 7);
    }
  };
  FlatMap<std::uint64_t, std::uint64_t, OneTagHash> flat;
  std::map<std::uint64_t, std::uint64_t> ref;
  Rng rng{0x7a9};
  for (int step = 0; step < 6000; ++step) {
    const auto key = rng.below(700);
    if (rng.chance(0.35)) {
      ASSERT_EQ(flat.erase(key), ref.erase(key));
    } else {
      ASSERT_EQ(flat.emplace(key, key * 3).second, ref.emplace(key, key * 3).second);
    }
  }
  ASSERT_EQ(flat.size(), ref.size());
  for (std::uint64_t k = 0; k < 700; ++k) EXPECT_EQ(flat.contains(k), ref.count(k) == 1);
  const std::map<std::uint64_t, std::uint64_t> sorted(flat.begin(), flat.end());
  EXPECT_EQ(sorted, ref);
}

TEST(FlatMapTest, TombstonesAreReusedWhateverTheTags) {
  // Every key probes from slot 0: once with one shared tag, once with a
  // distinct tag per key. Erasing one key and inserting a fresh one reuses
  // the erased slot, so a thousand such turns never grow the table.
  struct OneBucketHash {
    std::size_t operator()(std::uint64_t) const noexcept { return 0; }
  };
  struct TaggedBucketHash {
    std::size_t operator()(std::uint64_t k) const noexcept {
      return static_cast<std::size_t>(k << 57);
    }
  };
  const auto churn = [](auto& m) {
    for (std::uint64_t k = 0; k < 10; ++k) m.emplace(k, static_cast<int>(k));
    const auto cap = m.capacity();
    for (std::uint64_t turn = 0; turn < 1000; ++turn) {
      ASSERT_EQ(m.erase(turn), 1u) << "turn " << turn;
      ASSERT_TRUE(m.emplace(turn + 10, static_cast<int>(turn)).second);
      ASSERT_EQ(m.size(), 10u);
    }
    EXPECT_EQ(m.capacity(), cap) << "an erased slot was not reused";
    for (std::uint64_t k = 0; k < 1010; ++k) EXPECT_EQ(m.contains(k), k >= 1000);
  };
  FlatMap<std::uint64_t, int, OneBucketHash> one_tag;
  churn(one_tag);
  FlatMap<std::uint64_t, int, TaggedBucketHash> many_tags;
  churn(many_tags);
}

TEST(FlatMapTest, GrowsPastSevenEighthsLoad) {
  FlatSet<std::uint64_t> s;
  for (std::uint64_t k = 0; k < 14; ++k) s.insert(k);
  EXPECT_EQ(s.capacity(), 16u) << "14 entries fit in 16 slots";
  s.insert(14);
  EXPECT_EQ(s.capacity(), 32u) << "the 15th grows the table";
  for (std::uint64_t k = 15; k < 28; ++k) s.insert(k);
  EXPECT_EQ(s.capacity(), 32u) << "28 entries fit in 32 slots";
  for (std::size_t n = 1; n <= 300; ++n) {
    FlatSet<std::uint64_t> r;
    r.reserve(n);
    const auto cap = r.capacity();
    for (std::uint64_t k = 0; k < n; ++k) r.insert(k);
    ASSERT_EQ(r.capacity(), cap) << "reserve(" << n << ") must make its inserts rehash-free";
  }
}

/// Counts live instances, so a test can see that a table constructs an
/// entry per element, not per slot, and destroys each one it made.
struct Tracked {
  static inline int live = 0;
  std::string payload;  // longer than the small-string buffer: owns heap
  explicit Tracked(int v = 0) : payload(40, static_cast<char>('a' + v % 26)) { ++live; }
  Tracked(const Tracked& o) : payload(o.payload) { ++live; }
  Tracked(Tracked&& o) noexcept : payload(std::move(o.payload)) { ++live; }
  Tracked& operator=(const Tracked&) = default;
  Tracked& operator=(Tracked&&) noexcept = default;
  ~Tracked() { --live; }
  friend bool operator==(const Tracked&, const Tracked&) = default;
};

template <typename V>
V value_of(int i) {
  if constexpr (std::is_same_v<V, Tracked>)
    return Tracked{i};
  else
    return static_cast<V>(i * 7 + 1);
}

template <typename V>
void check_copies_and_moves() {
  using Map = FlatMap<std::uint64_t, V>;
  Map a;
  for (int i = 0; i < 40; ++i) a.emplace(static_cast<std::uint64_t>(i), value_of<V>(i));
  for (int i = 0; i < 40; i += 3) a.erase(static_cast<std::uint64_t>(i));  // tombstones too

  Map copy{a};
  EXPECT_EQ(copy, a);
  EXPECT_EQ(copy.capacity(), a.capacity());
  copy.erase(1);
  EXPECT_TRUE(a.contains(1)) << "a copy shares nothing with its source";

  Map assigned;
  assigned.emplace(999, value_of<V>(9));
  assigned = a;
  EXPECT_EQ(assigned, a);
  EXPECT_FALSE(assigned.contains(999));
  const Map& same = assigned;
  assigned = same;  // self-assignment keeps the contents
  EXPECT_EQ(assigned, a);

  Map moved{std::move(assigned)};
  EXPECT_EQ(moved, a);
  EXPECT_TRUE(assigned.empty());  // NOLINT(bugprone-use-after-move): moved-from is empty
  EXPECT_EQ(assigned.capacity(), 0u);
  assigned.emplace(5, value_of<V>(5));  // and usable again
  EXPECT_EQ(assigned.size(), 1u);

  Map target;
  for (int i = 100; i < 130; ++i) target.emplace(static_cast<std::uint64_t>(i), value_of<V>(i));
  target = std::move(moved);
  EXPECT_EQ(target, a);
  EXPECT_FALSE(target.contains(100));
  target.clear();
  EXPECT_TRUE(target.empty());
  EXPECT_EQ(a.size(), 26u);
}

TEST(FlatMapTest, CopiesAndMovesTrivialEntries) { check_copies_and_moves<std::uint64_t>(); }

TEST(FlatMapTest, CopiesAndMovesOwningEntries) {
  Tracked::live = 0;
  check_copies_and_moves<Tracked>();
  EXPECT_EQ(Tracked::live, 0) << "every entry a table made was destroyed";
}

TEST(FlatMapTest, ConstructsAnEntryPerElementNotPerSlot) {
  Tracked::live = 0;
  {
    FlatMap<std::uint64_t, Tracked> m;
    m.reserve(1000);
    EXPECT_EQ(Tracked::live, 0) << "empty slots hold no entry";
    for (int i = 0; i < 500; ++i) m.emplace(static_cast<std::uint64_t>(i), i);
    EXPECT_EQ(Tracked::live, 500);
    for (int i = 0; i < 500; i += 2) m.erase(static_cast<std::uint64_t>(i));
    EXPECT_EQ(Tracked::live, 250) << "erase destroys the entry";
    for (int i = 500; i < 3000; ++i) m.emplace(static_cast<std::uint64_t>(i), i);
    EXPECT_EQ(Tracked::live, 2750) << "growth moves entries without leaving copies";
    m.clear();
    EXPECT_EQ(Tracked::live, 0);
    m.emplace(1, 1);
  }
  EXPECT_EQ(Tracked::live, 0);
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
