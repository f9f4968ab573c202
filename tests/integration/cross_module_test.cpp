// Cross-module integration properties beyond the main end-to-end pipeline:
// multi-vantage + alias + graph interplay, tool-grade replay fidelity, and
// scale/determinism contracts the benches rely on.
#include <gtest/gtest.h>

#include <sstream>

#include "alias/speedtrap.hpp"
#include "analysis/mra.hpp"
#include "analysis/pathdiv.hpp"
#include "campaign/runner.hpp"
#include "io/trace_io.hpp"
#include "prober/multivantage.hpp"
#include "prober/yarrp6.hpp"
#include "seeds/sources.hpp"
#include "target/synthesis.hpp"
#include "target/transform.hpp"
#include "topology/collector.hpp"
#include "topology/graph.hpp"

namespace beholder6 {
namespace {

class CrossModuleTest : public ::testing::Test {
 protected:
  CrossModuleTest() : topo_(simnet::TopologyParams{.seed = 424242}) {
    scale_.scale = 0.25;
  }

  std::vector<Ipv6Addr> targets(const char* list, unsigned zn) {
    for (const auto& l : seeds::make_all(topo_, scale_, 424242))
      if (l.name == list)
        return target::synthesize_fixediid(target::transform_zn(l, zn)).addrs;
    return {};
  }

  simnet::Topology topo_;
  seeds::SeedScale scale_;
};

TEST_F(CrossModuleTest, RouterGraphNeverLargerThanInterfaceGraph) {
  simnet::NetworkParams np;
  np.unlimited = true;
  simnet::Network net{topo_, np};
  topology::TraceCollector collector;
  auto t = targets("caida", 64);
  ASSERT_GT(t.size(), 50u);
  for (const auto& v : topo_.vantages()) {
    prober::Yarrp6Config cfg;
    cfg.src = v.src;
    cfg.pps = 100000;
    cfg.max_ttl = 14;
    prober::Yarrp6Source source{cfg, t};
    campaign::CampaignRunner::run_one(
        net, source, cfg.endpoint(), cfg.pacing(),
        [&](const wire::DecodedReply& r) { collector.on_reply(r); });
  }
  const auto graph = topology::LinkGraph::from_traces(collector);

  std::vector<Ipv6Addr> candidates(collector.interfaces().begin(),
                                   collector.interfaces().end());
  std::sort(candidates.begin(), candidates.end());
  alias::SpeedtrapConfig acfg;
  acfg.src = topo_.vantages()[0].src;
  alias::SpeedtrapResolver resolver{acfg};
  const auto routers = resolver.resolve(net, candidates);

  std::map<Ipv6Addr, std::size_t> alias_map;
  for (std::size_t i = 0; i < routers.size(); ++i)
    for (const auto& iface : routers[i]) alias_map.emplace(iface, i);

  EXPECT_LE(routers.size(), candidates.size());
  EXPECT_LE(graph.router_level_links(alias_map), graph.link_count());
  // Resolution must match the simulator's ground truth router count for
  // the responsive candidates.
  std::set<std::uint64_t> truth;
  for (const auto& iface : candidates)
    truth.insert(net.learned_interfaces().at(iface));
  EXPECT_EQ(routers.size(), truth.size());
}

TEST_F(CrossModuleTest, PersistedCampaignAnalyzesIdenticallyToLive) {
  simnet::Network net{topo_};
  prober::Yarrp6Config cfg;
  cfg.src = topo_.vantages()[0].src;
  cfg.pps = 1000;
  cfg.max_ttl = 16;
  auto t = targets("dnsdb", 64);
  ASSERT_GT(t.size(), 30u);

  topology::TraceCollector live;
  std::stringstream text;
  io::TextWriter writer{text};
  prober::Yarrp6Source source{cfg, t};
  campaign::CampaignRunner::run_one(
      net, source, cfg.endpoint(), cfg.pacing(),
      [&](const wire::DecodedReply& r) {
        live.on_reply(r);
        writer.write(io::TraceRecord::from_reply(r));
      });

  topology::TraceCollector replayed;
  const auto read = io::read_text(text);
  EXPECT_EQ(read.malformed, 0u);
  for (const auto& rec : read.records) replayed.on_reply(rec.to_reply());

  // Subnet discovery over live and replayed state must agree exactly.
  const auto& vantage = topo_.vantages()[0];
  const auto live_res = analysis::discover_by_path_div(live, topo_, vantage);
  const auto replay_res = analysis::discover_by_path_div(replayed, topo_, vantage);
  EXPECT_EQ(live_res.pairs_examined, replay_res.pairs_examined);
  EXPECT_EQ(live_res.pairs_divergent, replay_res.pairs_divergent);
  EXPECT_EQ(live_res.ia_hack_count, replay_res.ia_hack_count);
  EXPECT_EQ(live_res.distinct_prefixes(), replay_res.distinct_prefixes());

  // Link graphs agree too.
  const auto g1 = topology::LinkGraph::from_traces(live);
  const auto g2 = topology::LinkGraph::from_traces(replayed);
  EXPECT_EQ(g1.links(), g2.links());
}

TEST_F(CrossModuleTest, ShardedCampaignRepliesAreSubsetOfFullCampaign) {
  auto t = targets("caida", 48);
  ASSERT_GT(t.size(), 20u);
  simnet::NetworkParams np;
  np.unlimited = true;

  auto run_full = [&](std::uint64_t key) {
    simnet::Network net{topo_, np};
    topology::TraceCollector c;
    prober::Yarrp6Config cfg;
    cfg.src = topo_.vantages()[0].src;
    cfg.pps = 100000;
    cfg.max_ttl = 8;
    cfg.permutation_key = key;
    prober::Yarrp6Source source{cfg, t};
    campaign::CampaignRunner::run_one(
        net, source, cfg.endpoint(), cfg.pacing(),
        [&](const wire::DecodedReply& r) { c.on_reply(r); });
    return c;
  };
  const auto full = run_full(0x59a9);

  // Union of one vantage's shards = that vantage's full campaign.
  simnet::Network net{topo_, np};
  topology::TraceCollector sharded;
  for (std::uint64_t shard = 0; shard < 4; ++shard) {
    prober::Yarrp6Config cfg;
    cfg.src = topo_.vantages()[0].src;
    cfg.pps = 100000;
    cfg.max_ttl = 8;
    cfg.permutation_key = 0x59a9;
    cfg.shard = shard;
    cfg.shard_count = 4;
    prober::Yarrp6Source source{cfg, t};
    campaign::CampaignRunner::run_one(
        net, source, cfg.endpoint(), cfg.pacing(),
        [&](const wire::DecodedReply& r) { sharded.on_reply(r); });
  }
  EXPECT_EQ(sharded.interfaces(), full.interfaces());
  EXPECT_EQ(sharded.traces().size(), full.traces().size());
}

TEST_F(CrossModuleTest, MraOfDiscoveredInterfacesSeparatesInfraFromEdge) {
  simnet::NetworkParams np;
  np.unlimited = true;
  simnet::Network net{topo_, np};
  topology::TraceCollector collector;
  auto t = targets("cdn-k32", 64);
  if (t.size() > 800) t.resize(800);
  ASSERT_GT(t.size(), 100u);
  prober::Yarrp6Config cfg;
  cfg.src = topo_.vantages()[0].src;
  cfg.pps = 100000;
  cfg.max_ttl = 16;
  prober::Yarrp6Source source{cfg, t};
  campaign::CampaignRunner::run_one(
      net, source, cfg.endpoint(), cfg.pacing(),
      [&](const wire::DecodedReply& r) { collector.on_reply(r); });

  std::vector<Ipv6Addr> ifaces(collector.interfaces().begin(),
                               collector.interfaces().end());
  const analysis::MraAnalysis mra{ifaces};
  // Interfaces concentrate in far fewer /48s than /64s: infrastructure
  // blocks hold many router addresses (clustered at /48) while CPE
  // gateways sit one per customer /64 (isolated at /64).
  EXPECT_LT(mra.aggregate_count(48), mra.aggregate_count(64));
  EXPECT_GT(mra.class_counts(64).isolated, 0u) << "per-/64 CPE gateways";
  const auto at48 = mra.class_counts(48);
  EXPECT_GT(at48.sparse + at48.dense, 0u) << "clustered infra addresses";
}

TEST_F(CrossModuleTest, WorldIsDeterministicAcrossConstructions) {
  simnet::Topology topo2{simnet::TopologyParams{.seed = 424242}};
  const auto lists1 = seeds::make_all(topo_, scale_, 424242);
  const auto lists2 = seeds::make_all(topo2, scale_, 424242);
  ASSERT_EQ(lists1.size(), lists2.size());
  for (std::size_t i = 0; i < lists1.size(); ++i) {
    EXPECT_EQ(lists1[i].name, lists2[i].name);
    EXPECT_EQ(lists1[i].entries, lists2[i].entries);
  }
}

}  // namespace
}  // namespace beholder6
