// Tests for speedtrap-style alias resolution against simnet ground truth.
#include "alias/speedtrap.hpp"

#include <gtest/gtest.h>

#include "campaign/runner.hpp"
#include "prober/yarrp6.hpp"
#include "wire/fragment.hpp"

namespace beholder6::alias {
namespace {

class SpeedtrapTest : public ::testing::Test {
 protected:
  SpeedtrapTest() : topo_(simnet::TopologyParams{}), net_(topo_, unlimited()) {}

  static simnet::NetworkParams unlimited() {
    simnet::NetworkParams p;
    p.unlimited = true;
    return p;
  }

  /// Discover interfaces from several vantages so ingress-dependent
  /// aliases of shared core routers enter the network's learned map.
  void discover() {
    std::vector<Ipv6Addr> targets;
    for (const auto& as : topo_.ases()) {
      if (as.type == simnet::AsType::kTier1) continue;
      targets.push_back(Ipv6Addr::from_halves(as.prefixes[0].base().hi(), 1));
    }
    for (const auto& v : topo_.vantages()) {
      prober::Yarrp6Config cfg;
      cfg.src = v.src;
      cfg.max_ttl = 16;
      cfg.pps = 100000;
      prober::Yarrp6Source source{cfg, targets};
      campaign::CampaignRunner::run_one(
          net_, source, cfg.endpoint(), cfg.pacing());
    }
  }

  /// A ground-truth alias pair: two learned interfaces with one router id.
  std::optional<std::pair<Ipv6Addr, Ipv6Addr>> find_alias_pair() {
    std::unordered_map<std::uint64_t, Ipv6Addr> seen;
    for (const auto& [iface, rid] : net_.learned_interfaces()) {
      const auto [it, fresh] = seen.emplace(rid, iface);
      if (!fresh && it->second != iface) return std::make_pair(it->second, iface);
    }
    return std::nullopt;
  }

  simnet::Topology topo_;
  simnet::Network net_;
};

TEST_F(SpeedtrapTest, IngressDependentInterfacesCreateAliases) {
  discover();
  EXPECT_TRUE(find_alias_pair())
      << "multi-vantage discovery should reveal >1 interface of some router";
}

TEST_F(SpeedtrapTest, BigEchoToLearnedInterfaceIsFragmented) {
  discover();
  const auto& [iface, rid] = *net_.learned_interfaces().begin();
  SpeedtrapConfig cfg;
  cfg.src = topo_.vantages()[0].src;
  SpeedtrapResolver resolver{cfg};
  const auto series = resolver.collect(net_, {iface});
  ASSERT_EQ(series.size(), 1u);
  EXPECT_EQ(series[0].samples.size(), cfg.rounds);
  // The identifications must be strictly increasing (one counter).
  for (std::size_t i = 1; i < series[0].samples.size(); ++i)
    EXPECT_GT(series[0].samples[i].second, series[0].samples[i - 1].second);
}

TEST_F(SpeedtrapTest, ResolvesTrueAliasesTogether) {
  discover();
  const auto pair = find_alias_pair();
  ASSERT_TRUE(pair);
  // Add two unrelated interfaces as controls.
  std::vector<Ipv6Addr> candidates{pair->first, pair->second};
  std::uint64_t alias_rid = net_.learned_interfaces().at(pair->first);
  for (const auto& [iface, rid] : net_.learned_interfaces()) {
    if (rid != alias_rid && candidates.size() < 5 &&
        std::find(candidates.begin(), candidates.end(), iface) == candidates.end())
      candidates.push_back(iface);
  }
  ASSERT_GE(candidates.size(), 4u);

  SpeedtrapConfig cfg;
  cfg.src = topo_.vantages()[0].src;
  SpeedtrapResolver resolver{cfg};
  const auto routers = resolver.resolve(net_, candidates);

  // The alias pair must land in one cluster; the controls in others.
  const Router* alias_cluster = nullptr;
  for (const auto& r : routers)
    if (std::find(r.begin(), r.end(), pair->first) != r.end()) alias_cluster = &r;
  ASSERT_NE(alias_cluster, nullptr);
  EXPECT_NE(std::find(alias_cluster->begin(), alias_cluster->end(), pair->second),
            alias_cluster->end())
      << "true aliases separated";
  EXPECT_EQ(alias_cluster->size(), 2u) << "unrelated interfaces absorbed";
  EXPECT_EQ(routers.size(), candidates.size() - 1) << "controls are singletons";
}

TEST_F(SpeedtrapTest, UnknownInterfacesAreUnresponsive) {
  discover();
  SpeedtrapConfig cfg;
  cfg.src = topo_.vantages()[0].src;
  SpeedtrapResolver resolver{cfg};
  const auto routers =
      resolver.resolve(net_, {Ipv6Addr::must_parse("2001:db8:aaaa::77")});
  EXPECT_TRUE(routers.empty());
  EXPECT_EQ(resolver.unresponsive(), 1u);
}

TEST(SharesCounter, MonotoneInterleaveDetection) {
  IdSeries a, b;
  a.iface = Ipv6Addr::must_parse("::1");
  b.iface = Ipv6Addr::must_parse("::2");
  // Shared counter: ids strictly increase across the interleaving.
  a.samples = {{0, 100}, {2, 102}, {4, 104}};
  b.samples = {{1, 101}, {3, 103}, {5, 105}};
  EXPECT_TRUE(shares_counter(a, b));
  // Independent counters: offsets break monotonicity.
  b.samples = {{1, 5000}, {3, 5001}, {5, 5002}};
  EXPECT_FALSE(shares_counter(a, b));
  // Empty series never match.
  b.samples.clear();
  EXPECT_FALSE(shares_counter(a, b));
}

}  // namespace
}  // namespace beholder6::alias
