// Property tests for the yarrp6 prober: sharding partitions, fill-cap and
// instance invariants, degenerate configurations.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "campaign/runner.hpp"
#include "prober/yarrp6.hpp"
#include "simnet/network.hpp"

namespace beholder6::prober {
namespace {

class ProberProperty : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  ProberProperty() : topo_(simnet::TopologyParams{}) {}

  std::vector<Ipv6Addr> targets(std::size_t n) {
    std::vector<Ipv6Addr> out;
    for (const auto& as : topo_.ases()) {
      for (const auto& s : topo_.enumerate_subnets(as, 4))
        out.push_back(s.base() | Ipv6Addr::from_halves(0, 0x1234));
      if (out.size() >= n) break;
    }
    out.resize(std::min(out.size(), n));
    return out;
  }

  static simnet::NetworkParams unlimited() {
    simnet::NetworkParams p;
    p.unlimited = true;
    return p;
  }

  simnet::Topology topo_;
};

TEST_P(ProberProperty, ShardsPartitionExactlyForAnyShardCount) {
  const auto t = targets(30);
  const std::uint64_t key = GetParam();
  for (const std::uint64_t k : {1u, 2u, 3u, 5u, 7u}) {
    std::uint64_t total = 0;
    for (std::uint64_t shard = 0; shard < k; ++shard) {
      simnet::Network net{topo_, unlimited()};
      Yarrp6Config cfg;
      cfg.src = topo_.vantages()[0].src;
      cfg.pps = 100000;
      cfg.max_ttl = 5;
      cfg.permutation_key = key;
      cfg.shard = shard;
      cfg.shard_count = k;
      Yarrp6Source source{cfg, t};
      total += campaign::CampaignRunner::run_one(
          net, source, cfg.endpoint(), cfg.pacing()).probes_sent;
    }
    EXPECT_EQ(total, t.size() * 5) << "k=" << k << " key=" << key;
  }
}

TEST_P(ProberProperty, PermutationKeyPreservesCoverage) {
  const auto t = targets(20);
  simnet::Network net{topo_, unlimited()};
  Yarrp6Config cfg;
  cfg.src = topo_.vantages()[0].src;
  cfg.pps = 100000;
  cfg.max_ttl = 4;
  cfg.permutation_key = GetParam();
  std::map<Ipv6Addr, std::set<std::uint8_t>> seen;
  Yarrp6Source source{cfg, t};
  campaign::CampaignRunner::run_one(
      net, source, cfg.endpoint(), cfg.pacing(),
      [&](const wire::DecodedReply& r) {
        seen[r.probe.target].insert(r.probe.ttl);
      });
  // With unlimited buckets every (target, ttl <= path len) answers; at the
  // very least each target's TTL-1 probe must have been made and answered.
  EXPECT_EQ(seen.size(), t.size());
  for (const auto& [target, ttls] : seen) EXPECT_TRUE(ttls.contains(1));
}

INSTANTIATE_TEST_SUITE_P(Keys, ProberProperty,
                         ::testing::Values(0x1, 0x59a9, 0xdeadbeef, 0xffff0000));

class ProberEdge : public ::testing::Test {
 protected:
  ProberEdge() : topo_(simnet::TopologyParams{}), net_(topo_, unlimited()) {}

  static simnet::NetworkParams unlimited() {
    simnet::NetworkParams p;
    p.unlimited = true;
    return p;
  }

  std::vector<Ipv6Addr> one_target() {
    for (const auto& as : topo_.ases())
      for (const auto& s : topo_.enumerate_subnets(as, 1))
        return {s.base() | Ipv6Addr::from_halves(0, 0x1234)};
    return {};
  }

  simnet::Topology topo_;
  simnet::Network net_;
};

TEST_F(ProberEdge, EmptyTargetsSendNothing) {
  Yarrp6Config cfg;
  cfg.src = topo_.vantages()[0].src;
  Yarrp6Source source{cfg, {}};
  const auto stats = campaign::CampaignRunner::run_one(
      net_, source, cfg.endpoint(), cfg.pacing());
  EXPECT_EQ(stats.probes_sent, 0u);
  EXPECT_EQ(stats.replies, 0u);
}

TEST_F(ProberEdge, ZeroMaxTtlSendsNothing) {
  Yarrp6Config cfg;
  cfg.src = topo_.vantages()[0].src;
  cfg.max_ttl = 0;
  const auto t = one_target();
  Yarrp6Source source{cfg, t};
  const auto stats = campaign::CampaignRunner::run_one(
      net_, source, cfg.endpoint(), cfg.pacing());
  EXPECT_EQ(stats.probes_sent, 0u);
}

TEST_F(ProberEdge, FillCapBoundsFillDepth) {
  const auto t = one_target();
  Yarrp6Config cfg;
  cfg.src = topo_.vantages()[0].src;
  cfg.pps = 100000;
  cfg.max_ttl = 2;
  cfg.fill_mode = true;
  cfg.fill_cap = 5;
  std::uint8_t max_seen = 0;
  Yarrp6Source source{cfg, t};
  const auto stats = campaign::CampaignRunner::run_one(
      net_, source, cfg.endpoint(), cfg.pacing(),
      [&](const wire::DecodedReply& r) {
        max_seen = std::max(max_seen, r.probe.ttl);
      });
  EXPECT_LE(max_seen, 5);
  EXPECT_LE(stats.probes_sent, 2u + 3u);  // ttl 1,2 + fills 3,4,5
  EXPECT_GT(stats.fills, 0u);
}

TEST_F(ProberEdge, FillCapEqualToMaxTtlMeansNoFills) {
  const auto t = one_target();
  Yarrp6Config cfg;
  cfg.src = topo_.vantages()[0].src;
  cfg.pps = 100000;
  cfg.max_ttl = 4;
  cfg.fill_mode = true;
  cfg.fill_cap = 4;
  Yarrp6Source source{cfg, t};
  const auto stats = campaign::CampaignRunner::run_one(
      net_, source, cfg.endpoint(), cfg.pacing());
  EXPECT_EQ(stats.fills, 0u);
  EXPECT_EQ(stats.probes_sent, 4u);
}

TEST_F(ProberEdge, InstanceMismatchedRepliesAreDropped) {
  // Craft a reply quoting another instance's probe: the prober's decode
  // accepts it but the instance filter must reject it. We emulate by
  // running instance 7 and checking all sink replies carry instance 7.
  const auto t = one_target();
  Yarrp6Config cfg;
  cfg.src = topo_.vantages()[0].src;
  cfg.pps = 100000;
  cfg.max_ttl = 6;
  cfg.instance = 7;
  std::size_t n = 0;
  Yarrp6Source source{cfg, t};
  campaign::CampaignRunner::run_one(
      net_, source, cfg.endpoint(), cfg.pacing(),
      [&](const wire::DecodedReply& r) {
        ++n;
        EXPECT_EQ(r.probe.instance, 7);
      });
  EXPECT_GT(n, 0u);
}

TEST_F(ProberEdge, StatsElapsedMatchesPacing) {
  const auto t = one_target();
  Yarrp6Config cfg;
  cfg.src = topo_.vantages()[0].src;
  cfg.pps = 100;  // 10ms per probe
  cfg.max_ttl = 10;
  Yarrp6Source source{cfg, t};
  const auto stats = campaign::CampaignRunner::run_one(
      net_, source, cfg.endpoint(), cfg.pacing());
  EXPECT_EQ(stats.probes_sent, 10u);
  EXPECT_EQ(stats.elapsed_virtual_us, 10u * 10000u);
}

TEST_F(ProberEdge, NeighborhoodNeverSkipsBeyondThreshold) {
  std::vector<Ipv6Addr> t;
  for (const auto& as : topo_.ases()) {
    for (const auto& s : topo_.enumerate_subnets(as, 8))
      t.push_back(s.base() | Ipv6Addr::from_halves(0, 0x1234));
    if (t.size() >= 64) break;
  }
  Yarrp6Config cfg;
  cfg.src = topo_.vantages()[0].src;
  cfg.pps = 1000;
  cfg.max_ttl = 8;
  cfg.neighborhood = true;
  cfg.neighborhood_ttl = 2;
  cfg.neighborhood_window_us = 1;  // aggressive: everything near goes stale
  std::set<std::uint8_t> answered_ttls;
  Yarrp6Source source{cfg, t};
  const auto stats = campaign::CampaignRunner::run_one(
      net_, source, cfg.endpoint(), cfg.pacing(),
      [&](const wire::DecodedReply& r) {
        answered_ttls.insert(r.probe.ttl);
      });
  EXPECT_GT(stats.neighborhood_skips, 0u);
  // TTLs above the threshold are never skipped: deep hops must still appear.
  EXPECT_TRUE(answered_ttls.contains(3));
  EXPECT_TRUE(answered_ttls.contains(4));
}

}  // namespace
}  // namespace beholder6::prober
