// Tests for RadixTrie: insert/find/LPM semantics.
#include "netbase/radix_trie.hpp"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "support/literals.hpp"

namespace beholder6 {
namespace {

TEST(RadixTrie, InsertAndExactFind) {
  RadixTrie<int> t;
  EXPECT_TRUE(t.insert(test_support::prefix("2001:db8::", 32), 1));
  EXPECT_FALSE(t.insert(test_support::prefix("2001:db8::", 32), 2));  // overwrite
  ASSERT_NE(t.find(test_support::prefix("2001:db8::", 32)), nullptr);
  EXPECT_EQ(*t.find(test_support::prefix("2001:db8::", 32)), 2);
  EXPECT_EQ(t.find(test_support::prefix("2001:db8::", 33)), nullptr);
  EXPECT_EQ(t.size(), 1u);
  // Every read serves the overwritten value.
  const auto m = t.lpm(test_support::addr("2001:db8::1"));
  ASSERT_TRUE(m);
  EXPECT_EQ(*m->second, 2);
  std::vector<int> values;
  t.for_each([&](const Prefix&, int v) { values.push_back(v); });
  EXPECT_EQ(values, std::vector<int>{2});
}

TEST(RadixTrie, LongestPrefixMatchPicksMostSpecific) {
  RadixTrie<std::string> t;
  t.insert(test_support::prefix("2001:db8::", 32), "coarse");
  t.insert(test_support::prefix("2001:db8:1::", 48), "mid");
  t.insert(test_support::prefix("2001:db8:1:2::", 64), "fine");

  auto m = t.lpm(test_support::addr("2001:db8:1:2::99"));
  ASSERT_TRUE(m);
  EXPECT_EQ(*m->second, "fine");
  EXPECT_EQ(m->first, test_support::prefix("2001:db8:1:2::", 64));

  m = t.lpm(test_support::addr("2001:db8:1:3::99"));
  ASSERT_TRUE(m);
  EXPECT_EQ(*m->second, "mid");

  m = t.lpm(test_support::addr("2001:db8:ffff::1"));
  ASSERT_TRUE(m);
  EXPECT_EQ(*m->second, "coarse");

  EXPECT_FALSE(t.lpm(test_support::addr("2001:db9::1")));
}

TEST(RadixTrie, DefaultRouteMatchesAll) {
  RadixTrie<int> t;
  t.insert(test_support::prefix("::", 0), 7);
  auto m = t.lpm(test_support::addr("ffff:ffff::1"));
  ASSERT_TRUE(m);
  EXPECT_EQ(*m->second, 7);
  EXPECT_EQ(m->first.len(), 0u);
}

TEST(RadixTrie, CoversMatchesContainment) {
  RadixTrie<int> t;
  t.insert(test_support::prefix("2001:db8::", 32), 0);
  EXPECT_TRUE(t.covers(test_support::addr("2001:db8:abcd::1")));
  EXPECT_FALSE(t.covers(test_support::addr("2002::1")));
}

TEST(RadixTrie, ForEachVisitsInAddressOrder) {
  RadixTrie<int> t;
  t.insert(test_support::prefix("2001:db9::", 32), 3);
  t.insert(test_support::prefix("2001:db8::", 32), 1);
  t.insert(test_support::prefix("2001:db8:1::", 48), 2);
  std::vector<Prefix> seen;
  t.for_each([&](const Prefix& p, int) { seen.push_back(p); });
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0], test_support::prefix("2001:db8::", 32));
  EXPECT_EQ(seen[1], test_support::prefix("2001:db8:1::", 48));
  EXPECT_EQ(seen[2], test_support::prefix("2001:db9::", 32));
}

TEST(RadixTrie, EmptyTrieBehaves) {
  RadixTrie<int> t;
  EXPECT_TRUE(t.empty());
  EXPECT_FALSE(t.lpm(test_support::addr("::1")));
  EXPECT_EQ(t.find(test_support::prefix("::", 0)), nullptr);
}

TEST(RadixTrie, ManyRandomPrefixesLpmAgreesWithLinearScan) {
  RadixTrie<unsigned> t;
  // Reference table: later inserts of an equal prefix overwrite, and
  // std::map order is (base, length), the order for_each promises.
  std::map<Prefix, unsigned> ref;
  // Deterministic pseudo-random prefix population over every length.
  std::uint64_t x = 42;
  auto next = [&x] { x = x * 6364136223846793005ULL + 1442695040888963407ULL; return x; };
  for (unsigned i = 0; i < 600; ++i) {
    const auto base = Ipv6Addr::from_halves(next(), next());
    const unsigned len = static_cast<unsigned>(next() % 129);  // 0..128
    // Cluster half the population inside 2001::/22 so prefixes nest.
    const Prefix p{i % 2 ? base : Ipv6Addr::from_halves(
                                      (0x20010ULL << 44) | ((next() % 4) << 40) |
                                          (base.hi() >> 24), base.lo()),
                   len};
    EXPECT_EQ(t.insert(p, i), ref.find(p) == ref.end());
    ref[p] = i;
  }
  EXPECT_EQ(t.size(), ref.size());

  auto check = [&](const Ipv6Addr& probe) {
    // Linear-scan reference: most specific containing prefix.
    const std::pair<const Prefix, unsigned>* best = nullptr;
    for (const auto& e : ref)
      if (e.first.contains(probe) && (!best || e.first.len() > best->first.len()))
        best = &e;
    const auto got = t.lpm(probe);
    if (!best) {
      EXPECT_FALSE(got) << probe.to_string();
      return;
    }
    ASSERT_TRUE(got) << probe.to_string();
    EXPECT_EQ(got->first, best->first) << probe.to_string();
    EXPECT_EQ(*got->second, best->second) << probe.to_string();
  };
  for (const auto& [p, v] : ref) {
    check(p.base());  // first address
    const auto last_lo = p.len() >= 128 ? 0 : ~std::uint64_t{0} >> (p.len() > 64 ? p.len() - 64 : 0);
    const auto last_hi = p.len() >= 64 ? 0 : ~std::uint64_t{0} >> p.len();
    check(Ipv6Addr::from_halves(p.base().hi() | last_hi, p.base().lo() | last_lo));
    // Just outside: the sibling prefix differs from `p` in its last bit only.
    if (p.len() > 0) check(p.base().with_bit(p.len() - 1, !p.base().bit(p.len() - 1)));
  }
  for (unsigned i = 0; i < 2000; ++i) {
    const auto r = Ipv6Addr::from_halves(next(), next());
    check(r);
    check(Ipv6Addr::from_halves((0x20010ULL << 44) | ((next() % 4) << 40) | (r.hi() >> 24),
                                r.lo()));
  }

  std::vector<std::pair<Prefix, unsigned>> seen;
  t.for_each([&](const Prefix& p, unsigned v) { seen.emplace_back(p, v); });
  EXPECT_EQ(seen, (std::vector<std::pair<Prefix, unsigned>>(ref.begin(), ref.end())));
  for (const auto& [p, v] : ref) {
    ASSERT_NE(t.find(p), nullptr);
    EXPECT_EQ(*t.find(p), v);
  }
}

}  // namespace
}  // namespace beholder6
