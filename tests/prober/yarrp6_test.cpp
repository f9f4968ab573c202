// Tests for Yarrp6Source driven by the campaign engine: permutation
// coverage, pacing, fill mode, neighborhood mode, and the rate-limiting
// advantage over bursty probing.
#include "prober/yarrp6.hpp"

#include <gtest/gtest.h>

#include <map>

#include "campaign/runner.hpp"
#include "prober/sequential.hpp"
#include "topology/collector.hpp"

namespace beholder6::prober {
namespace {

class Yarrp6Test : public ::testing::Test {
 protected:
  Yarrp6Test() : topo_(simnet::TopologyParams{}) {}

  std::vector<Ipv6Addr> eyeball_targets(std::size_t n) {
    std::vector<Ipv6Addr> out;
    for (const auto& as : topo_.ases()) {
      if (as.type != simnet::AsType::kEyeballIsp) continue;
      for (const auto& s : topo_.enumerate_subnets(as, n))
        out.push_back(s.base() | Ipv6Addr::from_halves(0, 0x1234567812345678ULL));
      if (out.size() >= n) break;
    }
    out.resize(std::min(out.size(), n));
    return out;
  }

  Yarrp6Config base_config() {
    Yarrp6Config cfg;
    cfg.src = topo_.vantages()[0].src;
    cfg.max_ttl = 16;
    cfg.pps = 1000;
    return cfg;
  }

  simnet::Topology topo_;
};

TEST_F(Yarrp6Test, ProbesEveryTargetTtlPairExactlyOnce) {
  simnet::NetworkParams np;
  np.unlimited = true;
  simnet::Network net{topo_, np};
  const auto targets = eyeball_targets(20);
  ASSERT_GE(targets.size(), 10u);
  auto cfg = base_config();
  cfg.max_ttl = 8;
  Yarrp6Source source{cfg, targets};
  const auto stats = campaign::CampaignRunner::run_one(
      net, source, cfg.endpoint(), cfg.pacing());
  EXPECT_EQ(stats.probes_sent, targets.size() * 8);
  EXPECT_EQ(stats.traces, targets.size());
  EXPECT_EQ(net.stats().probes, stats.probes_sent);
}

TEST_F(Yarrp6Test, PacingAdvancesVirtualClockAtPps) {
  simnet::NetworkParams np;
  np.unlimited = true;
  simnet::Network net{topo_, np};
  const auto targets = eyeball_targets(10);
  auto cfg = base_config();
  cfg.pps = 100;  // 10ms per probe
  cfg.max_ttl = 4;
  Yarrp6Source source{cfg, targets};
  const auto stats = campaign::CampaignRunner::run_one(
      net, source, cfg.endpoint(), cfg.pacing());
  EXPECT_EQ(stats.elapsed_virtual_us, stats.probes_sent * 10'000);
}

TEST_F(Yarrp6Test, RepliesAreDecodedAndForwarded) {
  simnet::NetworkParams np;
  np.unlimited = true;
  simnet::Network net{topo_, np};
  const auto targets = eyeball_targets(10);
  topology::TraceCollector collector;
  const auto cfg = base_config();
  Yarrp6Source source{cfg, targets};
  const auto stats = campaign::CampaignRunner::run_one(
      net, source, cfg.endpoint(), cfg.pacing(),
      [&](const wire::DecodedReply& r) { collector.on_reply(r); });
  EXPECT_GT(stats.replies, targets.size() * 4);
  EXPECT_GT(collector.interfaces().size(), 5u);
  // Every reassembled trace belongs to a probed target.
  std::set<Ipv6Addr> tset(targets.begin(), targets.end());
  for (const auto& [t, tr] : collector.traces()) EXPECT_TRUE(tset.contains(t));
}

TEST_F(Yarrp6Test, PermutationKeyChangesOrderNotCoverage) {
  simnet::NetworkParams np;
  np.unlimited = true;
  const auto targets = eyeball_targets(12);
  auto cfg = base_config();
  cfg.max_ttl = 6;

  std::vector<std::uint64_t> order_a, order_b;
  for (auto key : {1ULL, 2ULL}) {
    simnet::Network net{topo_, np};
    cfg.permutation_key = key;
    auto& order = key == 1 ? order_a : order_b;
    topology::TraceCollector c;
    Yarrp6Source source{cfg, targets};
    campaign::CampaignRunner::run_one(
        net, source, cfg.endpoint(), cfg.pacing(),
        [&](const wire::DecodedReply& r) {
          order.push_back(Ipv6AddrHash{}(r.probe.target) ^ r.probe.ttl);
        });
  }
  ASSERT_EQ(order_a.size(), order_b.size()) << "coverage must not depend on key";
  EXPECT_NE(order_a, order_b) << "order must depend on key";
}

TEST_F(Yarrp6Test, FillModeExtendsPastMaxTtl) {
  simnet::NetworkParams np;
  np.unlimited = true;
  const auto targets = eyeball_targets(30);

  // With a small max TTL, fill mode must recover deeper hops.
  auto cfg = base_config();
  cfg.max_ttl = 8;
  cfg.fill_mode = true;
  simnet::Network net{topo_, np};
  topology::TraceCollector with_fill;
  Yarrp6Source fill_source{cfg, targets};
  const auto stats_fill = campaign::CampaignRunner::run_one(
      net, fill_source, cfg.endpoint(), cfg.pacing(),
      [&](const wire::DecodedReply& r) { with_fill.on_reply(r); });

  cfg.fill_mode = false;
  simnet::Network net2{topo_, np};
  topology::TraceCollector no_fill;
  Yarrp6Source nofill_source{cfg, targets};
  const auto stats_nofill = campaign::CampaignRunner::run_one(
      net2, nofill_source, cfg.endpoint(), cfg.pacing(),
      [&](const wire::DecodedReply& r) { no_fill.on_reply(r); });

  EXPECT_GT(stats_fill.fills, 0u);
  EXPECT_EQ(stats_nofill.fills, 0u);
  EXPECT_GT(stats_fill.probes_sent, stats_nofill.probes_sent);
  EXPECT_GT(with_fill.interfaces().size(), no_fill.interfaces().size());
  // Fill-discovered hops exceed the initial horizon.
  bool deeper = false;
  for (const auto& [t, tr] : with_fill.traces())
    deeper |= tr.path_len() > 8;
  EXPECT_TRUE(deeper);
}

TEST_F(Yarrp6Test, FillModeStopsAtUnresponsiveHop) {
  // A fill chain ends at the first silent hop; probes_sent stays bounded by
  // domain + fills <= domain + traces * (fill_cap - max_ttl).
  simnet::NetworkParams np;
  np.unlimited = true;
  simnet::Network net{topo_, np};
  const auto targets = eyeball_targets(20);
  auto cfg = base_config();
  cfg.max_ttl = 4;
  cfg.fill_mode = true;
  cfg.fill_cap = 32;
  Yarrp6Source source{cfg, targets};
  const auto stats = campaign::CampaignRunner::run_one(
      net, source, cfg.endpoint(), cfg.pacing());
  EXPECT_LE(stats.probes_sent,
            targets.size() * 4 + targets.size() * 28);
  EXPECT_GT(stats.fills, 0u);
}

TEST_F(Yarrp6Test, NeighborhoodModeSkipsStaleNearTtls) {
  simnet::NetworkParams np;
  np.unlimited = true;
  simnet::Network net{topo_, np};
  // Many targets: the premise hops (TTL 1..3) stop yielding new interfaces
  // almost immediately.
  const auto targets = eyeball_targets(300);
  auto cfg = base_config();
  cfg.neighborhood = true;
  cfg.neighborhood_ttl = 3;
  cfg.neighborhood_window_us = 200'000;  // 200ms without novelty
  Yarrp6Source source{cfg, targets};
  const auto stats = campaign::CampaignRunner::run_one(
      net, source, cfg.endpoint(), cfg.pacing());
  EXPECT_GT(stats.neighborhood_skips, 100u);
  EXPECT_LT(stats.probes_sent, targets.size() * 16);
}

TEST_F(Yarrp6Test, RandomizedBeatsSequentialUnderRateLimiting) {
  // The paper's Figure 5 in miniature: same targets, same average rate,
  // rate-limited network; yarrp6's spread order must discover clearly more
  // interfaces than the synchronized sequential prober at 1kpps.
  const auto targets = eyeball_targets(400);
  ASSERT_GE(targets.size(), 300u);

  simnet::Network net_y{topo_, simnet::NetworkParams{}};
  topology::TraceCollector cy;
  const auto ycfg = base_config();
  Yarrp6Source ysource{ycfg, targets};
  campaign::CampaignRunner::run_one(
      net_y, ysource, ycfg.endpoint(), ycfg.pacing(),
      [&](const wire::DecodedReply& r) { cy.on_reply(r); });

  SequentialConfig scfg;
  scfg.src = topo_.vantages()[0].src;
  scfg.max_ttl = 16;
  scfg.pps = 1000;
  simnet::Network net_s{topo_, simnet::NetworkParams{}};
  topology::TraceCollector cs;
  SequentialSource ssource{scfg, targets};
  campaign::CampaignRunner::run_one(
      net_s, ssource, scfg.endpoint(), scfg.pacing(),
      [&](const wire::DecodedReply& r) { cs.on_reply(r); });

  // Hop-1 responsiveness: yarrp6 near-perfect, sequential starved.
  auto hop1_rate = [&](const topology::TraceCollector& c) {
    std::size_t have = 0;
    for (const auto& [t, tr] : c.traces()) have += tr.hops.contains(1);
    return static_cast<double>(have) / static_cast<double>(targets.size());
  };
  EXPECT_GT(hop1_rate(cy), 0.9);
  EXPECT_LT(hop1_rate(cs), 0.5);
  EXPECT_GT(cy.interfaces().size(), cs.interfaces().size());
}

}  // namespace
}  // namespace beholder6::prober
