// Edge-case tests for speedtrap-style alias resolution: the monotone
// shared-counter test, false-alias rejection, and resolver bookkeeping.
#include <gtest/gtest.h>

#include "alias/speedtrap.hpp"
#include "campaign/runner.hpp"
#include "prober/yarrp6.hpp"
#include "simnet/network.hpp"
#include "support/literals.hpp"

namespace beholder6::alias {
namespace {

IdSeries series(const char* iface,
                std::initializer_list<std::pair<std::uint64_t, std::uint32_t>> s) {
  IdSeries out;
  out.iface = test_support::addr(iface);
  out.samples.assign(s.begin(), s.end());
  return out;
}

TEST(SharesCounterEdge, EmptySeriesNeverShares) {
  const auto a = series("::a", {});
  const auto b = series("::b", {{0, 1}, {2, 3}});
  EXPECT_FALSE(shares_counter(a, b));
  EXPECT_FALSE(shares_counter(b, a));
  EXPECT_FALSE(shares_counter(a, a));
}

TEST(SharesCounterEdge, EqualIdentificationsRejected) {
  // Two routers seeded to the same id value at disjoint times: a shared
  // counter can never repeat, so equality must reject.
  const auto a = series("::a", {{0, 10}, {2, 11}});
  const auto b = series("::b", {{1, 11}, {3, 12}});
  EXPECT_FALSE(shares_counter(a, b));
}

TEST(SharesCounterEdge, IndependentCountersInterleaveNonMonotonically) {
  // Counter A at ~100, counter B at ~5000: the merged sequence jumps down.
  const auto a = series("::a", {{0, 100}, {2, 101}, {4, 102}});
  const auto b = series("::b", {{1, 5000}, {3, 5001}, {5, 5002}});
  EXPECT_FALSE(shares_counter(a, b));
}

TEST(SharesCounterEdge, TrueSharedCounterAccepted) {
  const auto a = series("::a", {{0, 100}, {2, 102}, {4, 104}});
  const auto b = series("::b", {{1, 101}, {3, 103}, {5, 105}});
  EXPECT_TRUE(shares_counter(a, b));
}

TEST(SharesCounterEdge, SingleSampleEachStillComparable) {
  // One sample per side can satisfy monotonicity trivially; speedtrap
  // accepts it (precision comes from multiple rounds in practice).
  const auto a = series("::a", {{0, 7}});
  const auto b = series("::b", {{1, 8}});
  EXPECT_TRUE(shares_counter(a, b));
  const auto c = series("::c", {{1, 6}});
  EXPECT_FALSE(shares_counter(a, c));
}

class SpeedtrapNetTest : public ::testing::Test {
 protected:
  SpeedtrapNetTest() : topo_(simnet::TopologyParams{}), net_(topo_, unlimited()) {}

  static simnet::NetworkParams unlimited() {
    simnet::NetworkParams p;
    p.unlimited = true;
    return p;
  }

  /// Discover some interfaces so the network will answer echo toward them.
  std::vector<Ipv6Addr> discover(std::size_t targets) {
    std::vector<Ipv6Addr> t;
    for (const auto& as : topo_.ases()) {
      for (const auto& s : topo_.enumerate_subnets(as, 4))
        t.push_back(s.base() | Ipv6Addr::from_halves(0, 0x1234));
      if (t.size() >= targets) break;
    }
    t.resize(std::min(t.size(), targets));
    std::vector<Ipv6Addr> ifaces;
    for (const auto& v : topo_.vantages()) {
      prober::Yarrp6Config cfg;
      cfg.src = v.src;
      cfg.pps = 100000;
      cfg.max_ttl = 12;
      prober::Yarrp6Source source{cfg, t};
      campaign::CampaignRunner::run_one(
          net_, source, cfg.endpoint(), cfg.pacing());
    }
    for (const auto& [iface, rid] : net_.learned_interfaces())
      ifaces.push_back(iface);
    std::sort(ifaces.begin(), ifaces.end());
    return ifaces;
  }

  simnet::Topology topo_;
  simnet::Network net_;
};

TEST_F(SpeedtrapNetTest, ResolutionNeverMergesDifferentRouters) {
  const auto ifaces = discover(40);
  ASSERT_GT(ifaces.size(), 10u);
  SpeedtrapConfig cfg;
  cfg.src = topo_.vantages()[0].src;
  SpeedtrapResolver resolver{cfg};
  const auto routers = resolver.resolve(net_, ifaces);
  const auto& truth = net_.learned_interfaces();
  for (const auto& router : routers) {
    // All interfaces in one inferred cluster share one true router id.
    ASSERT_FALSE(router.empty());
    const auto rid = truth.at(router.front());
    for (const auto& iface : router) EXPECT_EQ(truth.at(iface), rid);
  }
}

TEST_F(SpeedtrapNetTest, ClustersPartitionTheResponsiveCandidates) {
  const auto ifaces = discover(30);
  SpeedtrapConfig cfg;
  cfg.src = topo_.vantages()[0].src;
  SpeedtrapResolver resolver{cfg};
  const auto routers = resolver.resolve(net_, ifaces);
  std::size_t total = 0;
  std::set<Ipv6Addr> seen;
  for (const auto& router : routers)
    for (const auto& iface : router) {
      ++total;
      EXPECT_TRUE(seen.insert(iface).second) << "interface in two clusters";
    }
  EXPECT_EQ(total + resolver.unresponsive(), ifaces.size());
}

TEST_F(SpeedtrapNetTest, MoreRoundsNeverHurtPrecision) {
  const auto ifaces = discover(25);
  for (const unsigned rounds : {2u, 4u, 8u}) {
    SpeedtrapConfig cfg;
    cfg.src = topo_.vantages()[0].src;
    cfg.rounds = rounds;
    SpeedtrapResolver resolver{cfg};
    const auto routers = resolver.resolve(net_, ifaces);
    const auto& truth = net_.learned_interfaces();
    for (const auto& router : routers) {
      const auto rid = truth.at(router.front());
      for (const auto& iface : router)
        EXPECT_EQ(truth.at(iface), rid) << "rounds=" << rounds;
    }
  }
}

TEST_F(SpeedtrapNetTest, ProbeCountAccounting) {
  const auto ifaces = discover(10);
  SpeedtrapConfig cfg;
  cfg.src = topo_.vantages()[0].src;
  cfg.rounds = 3;
  SpeedtrapResolver resolver{cfg};
  (void)resolver.resolve(net_, ifaces);
  EXPECT_EQ(resolver.probes_sent(), ifaces.size() * 3);
}

}  // namespace
}  // namespace beholder6::alias
