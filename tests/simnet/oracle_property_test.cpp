// Property tests for the topology ground-truth oracles: the same hashed
// answers must be consistent with each other from every angle the library
// consumes them (forwarding, seed generation, validation).
#include <gtest/gtest.h>

#include <set>

#include "simnet/topology.hpp"

namespace beholder6::simnet {
namespace {

class OracleProperty : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  OracleProperty() : topo_(TopologyParams{.seed = GetParam()}) {}
  Topology topo_;
};

TEST_P(OracleProperty, EveryAnnouncedPrefixOriginatesFromItsAs) {
  topo_.bgp().for_each([&](const Prefix& p, const Asn& asn) {
    const auto o = topo_.origin(p.base() | Ipv6Addr::from_halves(0, 1));
    ASSERT_TRUE(o) << p.to_string();
    // More-specific announcements can nest under another AS's covering
    // block only if inserted that way; our plan keeps origins consistent.
    EXPECT_EQ(*o, asn) << p.to_string();
  });
}

TEST_P(OracleProperty, EnumeratedSubnetsAreTrueSubnets) {
  for (const auto& as : topo_.ases()) {
    for (const auto& s : topo_.enumerate_subnets(as, 12)) {
      EXPECT_EQ(s.len(), 64u);
      const auto truth = topo_.true_subnet(s.base());
      ASSERT_TRUE(truth) << s.to_string();
      EXPECT_EQ(*truth, s) << "existing /64 must be its own most-specific subnet";
      const auto o = topo_.origin(s.base());
      ASSERT_TRUE(o);
      EXPECT_EQ(*o, as.asn);
    }
  }
}

TEST_P(OracleProperty, HostsAreInsideTheirSubnetAndFindable) {
  std::size_t checked = 0;
  for (const auto& as : topo_.ases()) {
    for (const auto& s : topo_.enumerate_subnets(as, 6)) {
      for (const auto& host : topo_.hosts_in(as, s)) {
        EXPECT_TRUE(s.contains(host.addr));
        const auto back = topo_.host_at(host.addr);
        ASSERT_TRUE(back) << host.addr.to_string();
        EXPECT_EQ(back->addr, host.addr);
        EXPECT_EQ(back->echo_responder, host.echo_responder);
        EXPECT_EQ(back->du_port_responder, host.du_port_responder);
        ++checked;
      }
    }
    if (checked > 300) break;
  }
  EXPECT_GT(checked, 50u);
}

TEST_P(OracleProperty, GatewayLiesInsideItsSlash64OrInfraBlock) {
  for (const auto& as : topo_.ases()) {
    for (const auto& s : topo_.enumerate_subnets(as, 6)) {
      const auto gw = topo_.gateway_iface(as, s);
      if (as.gateway == GatewayConvention::kInfraBlock) {
        // Numbered from infrastructure space: same AS, not the client /64.
        const auto o = topo_.origin(gw);
        ASSERT_TRUE(o);
        EXPECT_EQ(*o, as.asn);
      } else {
        EXPECT_TRUE(s.contains(gw)) << gw.to_string();
      }
    }
  }
}

TEST_P(OracleProperty, PathOracleIsPureFunction) {
  const auto& vantage = topo_.vantages()[0];
  for (const auto& as : topo_.ases()) {
    if (as.prefixes.empty()) continue;
    const auto target = as.prefixes[0].base() | Ipv6Addr::from_halves(0, 0x77);
    const auto a = topo_.path(vantage, target, 42, 58);
    const auto b = topo_.path(vantage, target, 42, 58);
    ASSERT_EQ(a.hops.size(), b.hops.size());
    for (std::size_t i = 0; i < a.hops.size(); ++i) {
      EXPECT_EQ(a.hops[i].iface, b.hops[i].iface);
      EXPECT_EQ(a.hops[i].router_id, b.hops[i].router_id);
    }
    EXPECT_EQ(a.end, b.end);
  }
}

TEST_P(OracleProperty, EcmpVariantsStayWithinDeclaredWidth) {
  const auto& vantage = topo_.vantages()[0];
  for (const auto& as : topo_.ases()) {
    const auto target = as.prefixes[0].base() | Ipv6Addr::from_halves(0, 0x99);
    // Sample several flow hashes; per hop position, distinct interfaces
    // must not exceed the ECMP width declared at that hop.
    std::map<std::size_t, std::set<std::uint64_t>> routers_at;
    std::map<std::size_t, unsigned> width_at;
    for (std::uint64_t flow = 0; flow < 16; ++flow) {
      const auto p = topo_.path(vantage, target, flow, 58);
      for (std::size_t i = 0; i < p.hops.size(); ++i) {
        routers_at[i].insert(p.hops[i].router_id);
        width_at[i] = std::max(width_at[i], p.hops[i].ecmp_width);
      }
    }
    for (const auto& [i, routers] : routers_at)
      EXPECT_LE(routers.size(), width_at[i]) << "hop " << i;
  }
}

TEST_P(OracleProperty, PathEndsAreConsistentWithOracles) {
  const auto& vantage = topo_.vantages()[1];
  std::size_t delivered = 0, noroute = 0;
  for (const auto& as : topo_.ases()) {
    for (const auto& s : topo_.enumerate_subnets(as, 3)) {
      const auto target = s.base() | Ipv6Addr::from_halves(0, 0x1234);
      const auto p = topo_.path(vantage, target, 7, 58);
      if (p.end == PathEnd::kDelivered) {
        ++delivered;
        ASSERT_FALSE(p.hops.empty());
        // Delivered paths end at the subnet gateway.
        EXPECT_EQ(p.hops.back().iface, topo_.gateway_iface(as, s));
      } else if (p.end == PathEnd::kFirewalled) {
        EXPECT_TRUE(topo_.firewalled(as, target));
      }
    }
    // Nonexistent region must be no-route.
    const auto bogus =
        as.prefixes[0].base() | Ipv6Addr::from_halves(0xfeULL << 24, 1);
    const auto p = topo_.path(vantage, bogus, 7, 58);
    if (p.end == PathEnd::kNoRoute) ++noroute;
  }
  EXPECT_GT(delivered, 20u);
  EXPECT_GT(noroute, topo_.ases().size() / 2);
}

TEST_P(OracleProperty, AsPathsAreStableAndSymmetricInLength) {
  const auto& ases = topo_.ases();
  for (std::size_t i = 0; i < ases.size(); i += 7) {
    for (std::size_t j = 1; j < ases.size(); j += 11) {
      const auto p1 = topo_.as_path(ases[i].asn, ases[j].asn);
      const auto p2 = topo_.as_path(ases[i].asn, ases[j].asn);
      EXPECT_EQ(p1, p2);
      ASSERT_FALSE(p1.empty());
      EXPECT_EQ(p1.front(), ases[i].asn);
      EXPECT_EQ(p1.back(), ases[j].asn);
      // BFS shortest paths have symmetric lengths.
      EXPECT_EQ(p1.size(), topo_.as_path(ases[j].asn, ases[i].asn).size());
    }
  }
}

TEST_P(OracleProperty, ClientActivityOnlyOnExistingSubnets) {
  for (const auto& as : topo_.ases()) {
    if (as.client_activity == 0.0) continue;
    std::size_t active = 0, total = 0;
    for (const auto& s : topo_.enumerate_subnets(as, 50)) {
      ++total;
      active += topo_.client_active(as, s);
    }
    if (total < 20) continue;
    // Activity rate should be in the rough vicinity of the configured
    // probability (it is a per-/64 Bernoulli draw).
    const auto rate = static_cast<double>(active) / static_cast<double>(total);
    EXPECT_NEAR(rate, as.client_activity, 0.30) << "asn " << as.asn;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OracleProperty, ::testing::Values(1, 2, 20180514));

}  // namespace
}  // namespace beholder6::simnet
