// Tests for the synthetic Internet ground truth: determinism, BGP,
// AS-level paths, existence oracles, addressing conventions.
#include "simnet/topology.hpp"

#include <gtest/gtest.h>

#include <set>
#include <utility>
#include <vector>

#include "netbase/eui64.hpp"
#include "netbase/rng.hpp"
#include "support/literals.hpp"

namespace beholder6::simnet {
namespace {

const Topology& topo() {
  static const Topology t{TopologyParams{}};
  return t;
}

TEST(Topology, DeterministicFromSeed) {
  TopologyParams p;
  p.seed = 99;
  const Topology a{p}, b{p};
  ASSERT_EQ(a.ases().size(), b.ases().size());
  for (std::size_t i = 0; i < a.ases().size(); ++i) {
    EXPECT_EQ(a.ases()[i].asn, b.ases()[i].asn);
    EXPECT_EQ(a.ases()[i].prefixes, b.ases()[i].prefixes);
    EXPECT_EQ(a.ases()[i].neighbors, b.ases()[i].neighbors);
  }
}

TEST(Topology, AsCensusMatchesParams) {
  const auto& t = topo();
  const TopologyParams p;  // what topo() was built from
  EXPECT_EQ(t.ases().size(), p.num_tier1 + p.num_transit + p.num_eyeball +
                                 p.num_content + p.num_university +
                                 p.num_small_edge);
  unsigned eyeballs = 0;
  for (const auto& as : t.ases()) eyeballs += as.type == AsType::kEyeballIsp;
  EXPECT_EQ(eyeballs, p.num_eyeball);
}

TEST(Topology, EveryAsAnnouncesItsPrimarySlash32) {
  for (const auto& as : topo().ases()) {
    ASSERT_FALSE(as.prefixes.empty());
    EXPECT_EQ(as.prefixes[0].len(), 32u);
    const auto inside =
        Ipv6Addr::from_halves(as.prefixes[0].base().hi() | 0x123456, 1);
    EXPECT_EQ(topo().origin(inside), as.asn);
  }
}

TEST(Topology, BgpHasMorePrefixesThanAsns) {
  std::size_t prefixes = 0;
  for (const auto& as : topo().ases()) prefixes += as.prefixes.size();
  EXPECT_GT(prefixes, topo().ases().size());
  EXPECT_EQ(topo().bgp().size(), prefixes);
}

TEST(Topology, SixToFourPrefixAnnounced) {
  const auto o = topo().origin(test_support::addr("2002:c000:201::1"));
  ASSERT_TRUE(o);
}

TEST(Topology, UnroutedSpaceHasNoOrigin) {
  EXPECT_FALSE(topo().origin(test_support::addr("2a10:dead::1")));
  EXPECT_FALSE(topo().origin(test_support::addr("fc00::1")));
}

TEST(Topology, OriginAgreesWithLinearScanOfBgp) {
  std::vector<std::pair<Prefix, Asn>> table;
  topo().bgp().for_each([&](const Prefix& p, const Asn& asn) { table.emplace_back(p, asn); });
  ASSERT_EQ(table.size(), topo().bgp().size());
  auto expect_origin = [&](const Ipv6Addr& a) {
    const std::pair<Prefix, Asn>* best = nullptr;
    for (const auto& e : table)
      if (e.first.contains(a) && (!best || e.first.len() > best->first.len())) best = &e;
    const auto got = topo().origin(a);
    if (best) {
      EXPECT_EQ(got, best->second) << a.to_string();
    } else {
      EXPECT_FALSE(got) << a.to_string();
    }
  };
  // The high-half bits below a prefix of `len` <= 64 bits, kept from `bits`.
  auto below = [](unsigned len, std::uint64_t bits) {
    return len >= 64 ? std::uint64_t{0} : bits >> len;
  };
  for (const auto& [p, asn] : table) {
    ASSERT_LE(p.len(), 64u);  // every announcement is at most a /64
    expect_origin(p.base());
    expect_origin(Ipv6Addr::from_halves(p.base().hi() | below(p.len(), ~std::uint64_t{0}),
                                        ~std::uint64_t{0}));
  }
  Rng rng{splitmix64(99)};
  for (unsigned i = 0; i < 10000; ++i) {
    // Half uniform (almost always unrouted), half inside an announcement
    // with random low bits, where more-specifics may take over.
    const auto r = Ipv6Addr::from_halves(rng(), rng());
    if (i % 2 == 0) {
      expect_origin(r);
      continue;
    }
    const auto& p = table[rng.below(table.size())].first;
    expect_origin(Ipv6Addr::from_halves(
        p.base().hi() | below(p.len(), r.hi()), r.lo()));
  }
}

TEST(Topology, ThreeVantagesWithDistinctSources) {
  const auto& vs = topo().vantages();
  ASSERT_EQ(vs.size(), 3u);
  std::set<Ipv6Addr> srcs;
  for (const auto& v : vs) {
    srcs.insert(v.src);
    EXPECT_NE(topo().vantage_by_src(v.src), nullptr);
    EXPECT_EQ(topo().origin(v.src), v.asn);
  }
  EXPECT_EQ(srcs.size(), 3u);
  // US-EDU-2 is the long-premise vantage.
  EXPECT_GT(vs[1].premise_hops, vs[0].premise_hops);
}

TEST(Topology, AsGraphIsConnected) {
  const auto& t = topo();
  const auto first = t.ases().front().asn;
  for (const auto& as : t.ases()) {
    const auto p = t.as_path(first, as.asn);
    ASSERT_FALSE(p.empty()) << "AS " << as.asn << " disconnected";
    EXPECT_EQ(p.front(), first);
    EXPECT_EQ(p.back(), as.asn);
    EXPECT_LE(p.size(), 7u);  // valley-ish hierarchy keeps paths short
  }
}

TEST(Topology, AsPathEndpointsAndSymmetryOfLength) {
  const auto& t = topo();
  const auto a = t.ases()[5].asn, b = t.ases()[40].asn;
  const auto ab = t.as_path(a, b), ba = t.as_path(b, a);
  EXPECT_EQ(ab.size(), ba.size());  // BFS shortest-path lengths agree
  EXPECT_EQ(t.as_path(a, a), std::vector<Asn>{a});
}

TEST(Topology, EnumeratedSubnetsSatisfyExistenceOracles) {
  const auto& t = topo();
  for (const auto& as : t.ases()) {
    if (as.type != AsType::kEyeballIsp && as.type != AsType::kUniversity) continue;
    const auto subnets = t.enumerate_subnets(as, 200);
    ASSERT_FALSE(subnets.empty()) << "AS " << as.asn;
    for (const auto& s : subnets) {
      EXPECT_EQ(s.len(), 64u);
      EXPECT_TRUE(as.prefixes[0].contains(s.base()) ||
                  (s.base().hi() >> 48) == 0x2610);
      EXPECT_TRUE(t.subnet_exists(as, s.base())) << s.to_string();
      EXPECT_TRUE(t.pop_exists(as, s.base()));
    }
  }
}

TEST(Topology, UniversityGatewaysAreLowbyteInTarget64) {
  const auto& t = topo();
  for (const auto& as : t.ases()) {
    if (as.type != AsType::kUniversity) continue;
    for (const auto& s : t.enumerate_subnets(as, 20)) {
      const auto gw = t.gateway_iface(as, s);
      EXPECT_EQ(gw.hi(), s.base().hi()) << "gateway inside the target /64";
      EXPECT_EQ(gw.lo(), 1u) << "::1 convention";
    }
  }
}

TEST(Topology, EyeballGatewaysAreEui64CpeWithIspOui) {
  const auto& t = topo();
  unsigned checked = 0;
  for (const auto& as : t.ases()) {
    if (as.type != AsType::kEyeballIsp) continue;
    for (const auto& s : t.enumerate_subnets(as, 20)) {
      const auto gw = t.gateway_iface(as, s);
      EXPECT_EQ(gw.hi(), s.base().hi());
      ASSERT_TRUE(is_eui64(gw));
      EXPECT_EQ(eui64_extract(gw)->oui(), as.cpe_oui);
      ++checked;
    }
  }
  EXPECT_GT(checked, 50u);
}

TEST(Topology, HostsLiveWhereTheOracleSaysTheyDo) {
  const auto& t = topo();
  unsigned live_checked = 0;
  for (const auto& as : t.ases()) {
    if (as.type != AsType::kContent) continue;
    for (const auto& s : t.enumerate_subnets(as, 30)) {
      for (const auto& host : t.hosts_in(as, s)) {
        const auto got = t.host_at(as, host.addr);
        ASSERT_TRUE(got) << host.addr.to_string();
        EXPECT_EQ(got->addr, host.addr);
        EXPECT_EQ(got->du_port_responder, host.du_port_responder);
        ++live_checked;
      }
      // A random IID in the same subnet is (almost surely) not a host.
      const auto ghost = Ipv6Addr::from_halves(s.base().hi(), 0xdeadbeef12345678ULL);
      EXPECT_FALSE(t.host_at(as, ghost));
    }
  }
  EXPECT_GT(live_checked, 20u);
}

TEST(Topology, TrueSubnetReturnsMostSpecificExistingLevel) {
  const auto& t = topo();
  for (const auto& as : t.ases()) {
    if (as.type != AsType::kUniversity) continue;
    const auto subnets = t.enumerate_subnets(as, 10);
    ASSERT_FALSE(subnets.empty());
    const auto ts = t.true_subnet(subnets[0].base());
    ASSERT_TRUE(ts);
    EXPECT_EQ(ts->len(), 64u);
    break;
  }
  EXPECT_FALSE(t.true_subnet(test_support::addr("2a10:dead::1")));
}

TEST(Topology, PathsEndAtGatewayForExistingSubnets) {
  const auto& t = topo();
  const auto& v = t.vantages()[0];
  unsigned delivered = 0;
  for (const auto& as : t.ases()) {
    if (as.type != AsType::kEyeballIsp) continue;
    for (const auto& s : t.enumerate_subnets(as, 10)) {
      const auto target = Ipv6Addr::from_halves(s.base().hi(), 0x1234);
      const auto p = t.path(v, target, 0, 58);
      if (p.end != PathEnd::kDelivered) continue;  // firewalled /48s allowed
      ASSERT_FALSE(p.hops.empty());
      EXPECT_EQ(p.hops.back().iface, t.gateway_iface(as, s));
      EXPECT_EQ(p.dest_asn, as.asn);
      EXPECT_GE(p.hops.size(), v.premise_hops + 2u);
      EXPECT_LE(p.hops.size(), 24u);
      ++delivered;
    }
  }
  EXPECT_GT(delivered, 20u);
}

TEST(Topology, PathIsDeterministicPerFlow) {
  const auto& t = topo();
  const auto& v = t.vantages()[0];
  const auto target = Ipv6Addr::from_halves(
      t.ases().back().prefixes[0].base().hi() | 0x00000100, 1);
  const auto p1 = t.path(v, target, 0xabc, 58);
  const auto p2 = t.path(v, target, 0xabc, 58);
  ASSERT_EQ(p1.hops.size(), p2.hops.size());
  for (std::size_t i = 0; i < p1.hops.size(); ++i)
    EXPECT_EQ(p1.hops[i].iface, p2.hops[i].iface);
}

TEST(Topology, EcmpResolvesByFlowHashSomewhere) {
  // Across many targets and two flow hashes, at least one path must differ
  // at an ECMP hop (width > 1) — and only at ECMP hops.
  const auto& t = topo();
  const auto& v = t.vantages()[0];
  bool any_diff = false;
  for (const auto& as : t.ases()) {
    if (as.type == AsType::kTier1 || as.type == AsType::kTransit) continue;
    const auto target = Ipv6Addr::from_halves(as.prefixes[0].base().hi(), 1);
    const auto p1 = t.path(v, target, 1, 58);
    const auto p2 = t.path(v, target, 2, 58);
    ASSERT_EQ(p1.hops.size(), p2.hops.size());
    for (std::size_t i = 0; i < p1.hops.size(); ++i) {
      if (p1.hops[i].iface != p2.hops[i].iface) {
        any_diff = true;
        EXPECT_GT(p1.hops[i].ecmp_width, 1u)
            << "non-ECMP hop differed with flow hash";
      }
    }
  }
  EXPECT_TRUE(any_diff) << "no ECMP diversity found across the whole edge";
}

TEST(Topology, UnroutedTargetsYieldUnroutedEnd) {
  const auto& t = topo();
  const auto p =
      t.path(t.vantages()[0], test_support::addr("2a10:dead::1"), 0, 58);
  EXPECT_EQ(p.end, PathEnd::kUnrouted);
  EXPECT_EQ(p.dest_asn, 0u);
  EXPECT_FALSE(p.hops.empty());
}

TEST(Topology, TransportPolicyBitesOnlyNonIcmp) {
  const auto& t = topo();
  const auto& v = t.vantages()[0];
  unsigned denied = 0;
  for (const auto& as : t.ases()) {
    if (as.transport == TransportPolicy::kAllowAll) continue;
    const auto subnets = t.enumerate_subnets(as, 3);
    if (subnets.empty()) continue;
    const auto target = Ipv6Addr::from_halves(subnets[0].base().hi(), 5);
    EXPECT_NE(t.path(v, target, 0, 58).end, PathEnd::kTransportDenied);
    const auto udp = t.path(v, target, 0, 17);
    EXPECT_EQ(udp.end, PathEnd::kTransportDenied);
    ++denied;
  }
  EXPECT_GT(denied, 0u) << "expected at least one filtering AS";
}

TEST(Topology, LongerPremiseMeansLongerPathsOnAverage) {
  // A single destination can be closer to one vantage in the AS graph, so
  // compare mean path length across the whole edge (the paper compares
  // median path length per vantage in Table 7).
  const auto& t = topo();
  double sum1 = 0, sum2 = 0;
  unsigned n = 0;
  for (const auto& as : t.ases()) {
    if (as.type == AsType::kTier1 || as.type == AsType::kTransit) continue;
    const auto target = Ipv6Addr::from_halves(as.prefixes[0].base().hi(), 1);
    sum1 += static_cast<double>(t.path(t.vantages()[0], target, 0, 58).hops.size());
    sum2 += static_cast<double>(t.path(t.vantages()[1], target, 0, 58).hops.size());
    ++n;
  }
  ASSERT_GT(n, 30u);
  EXPECT_GT(sum2 / n, sum1 / n + 1.0);
}

}  // namespace
}  // namespace beholder6::simnet
