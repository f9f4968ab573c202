// Tests for the seed-source generators and the IID classifier: each list
// must exhibit its real counterpart's documented bias (Table 1 shapes).
#include "seeds/sources.hpp"

#include <gtest/gtest.h>

#include <set>

#include "seeds/classify.hpp"
#include "support/literals.hpp"
#include "target/synthesis.hpp"
#include "target/transform.hpp"

namespace beholder6::seeds {
namespace {

const simnet::Topology& topo() {
  static const simnet::Topology t{simnet::TopologyParams{}};
  return t;
}

std::vector<Ipv6Addr> addrs_of(const SeedList& l) {
  std::vector<Ipv6Addr> out;
  for (const auto& e : l.entries)
    if (e.len() == 128) out.push_back(e.base());
  return out;
}

double routed_fraction(const SeedList& l) {
  std::size_t routed = 0, total = 0;
  for (const auto& e : l.entries) {
    ++total;
    routed += topo().bgp().covers(e.base());
  }
  return total == 0 ? 0.0 : static_cast<double>(routed) / static_cast<double>(total);
}

TEST(Classifier, RecognizesAllThreeClasses) {
  EXPECT_EQ(classify_iid(test_support::addr("2001:db8::1")), IidClass::kLowByte);
  EXPECT_EQ(classify_iid(test_support::addr("2001:db8::42ff")), IidClass::kLowByte);
  EXPECT_EQ(classify_iid(test_support::addr("2001:db8::211:22ff:fe33:4455")),
            IidClass::kEui64);
  EXPECT_EQ(classify_iid(test_support::addr("2001:db8::d1d7:be01:9a2f:11aa")),
            IidClass::kRandom);
}

TEST(Classifier, MixSumsToTotal) {
  const auto mix = classify_all(std::vector<Ipv6Addr>{
      test_support::addr("::1"), test_support::addr("::211:22ff:fe33:4455"),
      test_support::addr("::dead:beef:1234:5678")});
  EXPECT_EQ(mix.total(), 3u);
  EXPECT_EQ(mix.eui64, 1u);
  EXPECT_EQ(mix.lowbyte, 1u);
  EXPECT_EQ(mix.random, 1u);
  EXPECT_DOUBLE_EQ(mix.frac_eui64() + mix.frac_lowbyte() + mix.frac_random(), 1.0);
}

TEST(Seeds, DeterministicAcrossCalls) {
  const SeedScale sc;
  const auto a = make_caida(topo(), sc, 7), b = make_caida(topo(), sc, 7);
  EXPECT_EQ(a.entries, b.entries);
  const auto c = make_fiebig(topo(), sc, 7), d = make_fiebig(topo(), sc, 7);
  EXPECT_EQ(c.entries, d.entries);
}

TEST(Seeds, CaidaCoversEveryShortBgpPrefixAndIsFullyRouted) {
  const auto l = make_caida(topo(), SeedScale{}, 1);
  ASSERT_FALSE(l.entries.empty());
  EXPECT_DOUBLE_EQ(routed_fraction(l), 1.0);
  // Per prefix: one ::1 and one random — about half lowbyte.
  const auto mix = classify_all(addrs_of(l));
  EXPECT_NEAR(mix.frac_lowbyte(), 0.5, 0.12);
  EXPECT_LT(mix.frac_eui64(), 0.02);
  // Every /48-or-shorter BGP prefix contributes its ::1.
  const auto addrs = addrs_of(l);
  std::set<Ipv6Addr> have(addrs.begin(), addrs.end());
  topo().bgp().for_each([&](const Prefix& p, const simnet::Asn&) {
    if (p.len() > 48) return;
    EXPECT_TRUE(have.contains(p.base() | Ipv6Addr::from_halves(0, 1)))
        << p.to_string();
  });
}

TEST(Seeds, FiebigIsHalfUnroutedAndDenselyClustered) {
  const auto l = make_fiebig(topo(), SeedScale{}, 1);
  ASSERT_GT(l.size(), 500u);
  const auto routed = routed_fraction(l);
  EXPECT_GT(routed, 0.3);
  EXPECT_LT(routed, 0.8);
  // Its z64 DPL mass sits at high values (consecutive /64 runs).
  const auto z64 = target::transform_zn(l, 64);
  const auto t = target::synthesize_fixediid(z64);
  const auto dpls = target::dpl_of(t.addrs);
  unsigned high = 0;
  for (auto d : dpls) high += d >= 60;
  EXPECT_GT(static_cast<double>(high) / static_cast<double>(dpls.size()), 0.5);
}

TEST(Seeds, FdnsContainsSixToFourTail) {
  const auto l = make_fdns_any(topo(), SeedScale{}, 1);
  ASSERT_GT(l.size(), 1000u);
  std::size_t sixtofour = 0;
  for (const auto& e : l.entries) sixtofour += (e.base().hi() >> 48) == 0x2002;
  EXPECT_GT(sixtofour, 0u);
  EXPECT_LT(static_cast<double>(sixtofour) / static_cast<double>(l.size()), 0.15);
}

TEST(Seeds, DnsdbHasBroadestAsnCoverage) {
  // dnsdb sees nearly every edge AS; fdns is content/university only.
  auto asns_of = [&](const SeedList& l) {
    std::set<simnet::Asn> s;
    for (const auto& e : l.entries)
      if (auto o = topo().origin(e.base())) s.insert(*o);
    return s;
  };
  const auto dnsdb = asns_of(make_dnsdb(topo(), SeedScale{}, 1));
  const auto fdns = asns_of(make_fdns_any(topo(), SeedScale{}, 1));
  EXPECT_GT(dnsdb.size(), fdns.size());
}

TEST(Seeds, CdnEntriesArePrefixesCoveringActiveClients) {
  const auto k32 = make_cdn(topo(), SeedScale{}, 32, 1);
  const auto k256 = make_cdn(topo(), SeedScale{}, 256, 1);
  ASSERT_FALSE(k32.entries.empty());
  ASSERT_FALSE(k256.entries.empty());
  // k32 yields more, finer aggregates than k256 (paper Table 1/5).
  EXPECT_GT(k32.size(), k256.size());
  double m32 = 0, m256 = 0;
  for (const auto& e : k32.entries) m32 += e.len();
  for (const auto& e : k256.entries) m256 += e.len();
  EXPECT_GT(m32 / static_cast<double>(k32.size()),
            m256 / static_cast<double>(k256.size()));
  // All aggregates live in eyeball address space.
  for (const auto& e : k256.entries) {
    const auto o = topo().origin(e.base());
    ASSERT_TRUE(o);
    EXPECT_EQ(topo().as(*o)->type, simnet::AsType::kEyeballIsp);
  }
}

TEST(Seeds, SixGenStaysNearItsInputClusters) {
  const auto l = make_6gen(topo(), SeedScale{}, 1);
  ASSERT_GT(l.size(), 500u);
  // Loose-mode generation never leaves the /48 of its cluster, so a very
  // large share must be routed (inputs are mostly routed).
  EXPECT_GT(routed_fraction(l), 0.8);
}

TEST(Seeds, SixGenEmitsClustersInAscendingPrefixOrder) {
  // Regression: generation visits clusters while drawing RNG values and
  // stopping at the output budget, so the visit order shapes the output.
  // The cluster map is ordered by /48 — the list must come out in
  // contiguous, strictly ascending /48 groups, and identically across
  // calls. Under the old unordered_map both properties held only by
  // accident of hash-table layout.
  const auto a = make_6gen(topo(), SeedScale{}, 5);
  ASSERT_GT(a.size(), 100u);
  std::vector<std::uint64_t> group_order;
  for (const auto& e : a.entries) {
    const auto hi48 = e.base().masked(48).hi();
    if (group_order.empty() || group_order.back() != hi48)
      group_order.push_back(hi48);
  }
  for (std::size_t i = 1; i < group_order.size(); ++i)
    ASSERT_LT(group_order[i - 1], group_order[i])
        << "cluster groups out of order (or a /48 split into two runs)";
  const auto b = make_6gen(topo(), SeedScale{}, 5);
  EXPECT_EQ(a.entries, b.entries);
}

TEST(Seeds, TumIsEuiHeavySuperset) {
  const auto tum = make_tum(topo(), SeedScale{}, 1);
  const auto fdns = make_fdns_any(topo(), SeedScale{}, 1);
  ASSERT_GT(tum.size(), fdns.size());
  // The fdns subset rides along whole (the paper: 88% of fdns ⊂ tum).
  std::set<Prefix> in_tum(tum.entries.begin(), tum.entries.end());
  std::size_t contained = 0;
  for (const auto& e : fdns.entries) contained += in_tum.contains(e);
  EXPECT_GT(static_cast<double>(contained) / static_cast<double>(fdns.size()), 0.95);
  // EUI-64 share is noticeably higher than in the DNS lists (Table 1).
  const auto mix_tum = classify_all(addrs_of(tum));
  const auto mix_fdns = classify_all(addrs_of(fdns));
  EXPECT_GT(mix_tum.frac_eui64(), mix_fdns.frac_eui64());
  EXPECT_GT(mix_tum.frac_eui64(), 0.05);
}

TEST(Seeds, RandomIsRoutedAndUnstructured) {
  const auto l = make_random(topo(), SeedScale{}, 1);
  EXPECT_EQ(l.size(), kRandomTargets);
  EXPECT_DOUBLE_EQ(routed_fraction(l), 1.0);
  const auto mix = classify_all(addrs_of(l));
  EXPECT_GT(mix.frac_random(), 0.95);
}

TEST(Seeds, MakeAllProducesNineNamedLists) {
  simnet::TopologyParams tp;  // smaller run for speed
  tp.num_small_edge = 10;
  const simnet::Topology small{tp};
  SeedScale sc;
  sc.scale = 0.2;
  const auto all = make_all(small, sc, 3);
  ASSERT_EQ(all.size(), 9u);
  std::set<std::string> names;
  for (const auto& l : all) {
    EXPECT_FALSE(l.entries.empty()) << l.name;
    names.insert(l.name);
  }
  EXPECT_EQ(names.size(), 9u);
  EXPECT_TRUE(names.contains("cdn-k32"));
  EXPECT_TRUE(names.contains("cdn-k256"));
}

}  // namespace
}  // namespace beholder6::seeds
