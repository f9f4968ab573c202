// Integration tests: the full pipeline (seeds → transform → synthesis →
// campaign → collection → inference → persistence) run end to end, plus
// cross-module consistency properties the paper's methodology depends on.
#include <gtest/gtest.h>

#include <sstream>

#include "analysis/pathdiv.hpp"
#include "analysis/validate.hpp"
#include "campaign/runner.hpp"
#include "io/trace_io.hpp"
#include "prober/yarrp6.hpp"
#include "seeds/classify.hpp"
#include "seeds/sources.hpp"
#include "target/characterize.hpp"
#include "target/synthesis.hpp"
#include "target/transform.hpp"
#include "topology/collector.hpp"

namespace beholder6 {
namespace {

class EndToEndTest : public ::testing::Test {
 protected:
  EndToEndTest() : topo_(simnet::TopologyParams{.seed = 777}) {
    scale_.scale = 0.25;
  }

  simnet::Topology topo_;
  seeds::SeedScale scale_;
};

TEST_F(EndToEndTest, FullPipelineProducesConsistentArtifacts) {
  // Seeds -> z64 -> fixediid targets.
  const auto seed_list = seeds::make_dnsdb(topo_, scale_, 1);
  const auto targets =
      target::synthesize_fixediid(target::transform_zn(seed_list, 64));
  ASSERT_GT(targets.size(), 50u);

  // Campaign.
  simnet::Network net{topo_};
  prober::Yarrp6Config cfg;
  cfg.src = topo_.vantages()[0].src;
  cfg.pps = 1000;
  cfg.max_ttl = 16;
  cfg.fill_mode = true;
  topology::TraceCollector collector;
  std::vector<io::TraceRecord> persisted;
  prober::Yarrp6Source source{cfg, targets.addrs};
  const auto stats = campaign::CampaignRunner::run_one(
      net, source, cfg.endpoint(), cfg.pacing(),
      [&](const wire::DecodedReply& r) {
        collector.on_reply(r);
        persisted.push_back(io::TraceRecord::from_reply(r));
      });

  // Conservation: probes in == probes seen by the network; replies
  // consistent across prober, collector and persistence.
  EXPECT_EQ(stats.probes_sent, net.stats().probes);
  EXPECT_EQ(stats.replies, persisted.size());
  EXPECT_EQ(collector.te_responses() + collector.non_te_responses(), stats.replies);
  EXPECT_EQ(net.stats().responses(), stats.replies);

  // Every trace target was actually a campaign target.
  std::set<Ipv6Addr> tset(targets.addrs.begin(), targets.addrs.end());
  for (const auto& [t, tr] : collector.traces()) EXPECT_TRUE(tset.contains(t));

  // Every discovered interface is either routed (infrastructure/gateway) or
  // a CPE/gateway inside a routed /64.
  for (const auto& iface : collector.interfaces())
    EXPECT_TRUE(topo_.bgp().covers(iface)) << iface.to_string();

  // Persistence round-trip reproduces the collector's state.
  std::stringstream buf;
  io::write_binary(buf, persisted);
  topology::TraceCollector replayed;
  const auto reread = io::read_binary(buf);
  ASSERT_TRUE(reread.has_value());
  for (const auto& rec : *reread) replayed.on_reply(rec.to_reply());
  EXPECT_EQ(replayed.traces().size(), collector.traces().size());
  EXPECT_EQ(replayed.interfaces().size(), collector.interfaces().size());

  // Subnet inference runs and validates against ground truth.
  const auto res = analysis::discover_by_path_div(collector, topo_, topo_.vantages()[0]);
  const auto rep = analysis::validate_candidates(res.candidates, topo_);
  EXPECT_EQ(rep.candidates, res.candidates.size());
}

TEST_F(EndToEndTest, SameSeedSameCampaignByteForByte) {
  const auto seed_list = seeds::make_caida(topo_, scale_, 3);
  const auto targets =
      target::synthesize_fixediid(target::transform_zn(seed_list, 64));
  auto run_once = [&] {
    simnet::Network net{topo_};
    prober::Yarrp6Config cfg;
    cfg.src = topo_.vantages()[0].src;
    cfg.pps = 1000;
    std::vector<io::TraceRecord> records;
    prober::Yarrp6Source source{cfg, targets.addrs};
    campaign::CampaignRunner::run_one(
        net, source, cfg.endpoint(), cfg.pacing(),
        [&](const wire::DecodedReply& r) {
          records.push_back(io::TraceRecord::from_reply(r));
        });
    return records;
  };
  EXPECT_EQ(run_once(), run_once()) << "whole campaigns must be reproducible";
}

TEST_F(EndToEndTest, VantagesAgreeOnFarTopologyDifferOnNear) {
  // Traces from two vantages to the same targets share destination-side
  // hops (same gateways) but have disjoint premise hops.
  const auto seed_list = seeds::make_caida(topo_, scale_, 3);
  const auto targets =
      target::synthesize_fixediid(target::transform_zn(seed_list, 64));

  auto interfaces_of = [&](const simnet::VantageInfo& v) {
    simnet::NetworkParams np;
    np.unlimited = true;
    simnet::Network net{topo_, np};
    prober::Yarrp6Config cfg;
    cfg.src = v.src;
    cfg.pps = 100000;
    topology::TraceCollector c;
    prober::Yarrp6Source source{cfg, targets.addrs};
    campaign::CampaignRunner::run_one(
        net, source, cfg.endpoint(), cfg.pacing(),
        [&](const wire::DecodedReply& r) { c.on_reply(r); });
    return c;
  };
  const auto c1 = interfaces_of(topo_.vantages()[0]);
  const auto c2 = interfaces_of(topo_.vantages()[2]);

  std::size_t shared = 0;
  for (const auto& i : c1.interfaces()) shared += c2.interfaces().contains(i);
  EXPECT_GT(shared, 10u) << "destination-side topology must be common";
  EXPECT_LT(shared, c1.interfaces().size()) << "premise hops must differ";

  // Hop-1 interfaces must be entirely disjoint (different premises).
  std::set<Ipv6Addr> hop1_a, hop1_b;
  for (const auto& [t, tr] : c1.traces())
    if (tr.hops.contains(1)) hop1_a.insert(tr.hops.at(1).iface);
  for (const auto& [t, tr] : c2.traces())
    if (tr.hops.contains(1)) hop1_b.insert(tr.hops.at(1).iface);
  for (const auto& i : hop1_a) EXPECT_FALSE(hop1_b.contains(i));
}

TEST_F(EndToEndTest, DiscoveredInterfaceClassificationIsPlausible) {
  // Probing eyeball client space must surface EUI-64 CPE interfaces with
  // the configured ISP OUIs and last-hop offsets (paper Table 7's EUI-64
  // analysis).
  std::vector<Ipv6Addr> targets;
  std::set<std::uint32_t> expected_ouis;
  for (const auto& as : topo_.ases()) {
    if (as.type != simnet::AsType::kEyeballIsp) continue;
    expected_ouis.insert(as.cpe_oui);
    for (const auto& s : topo_.enumerate_subnets(as, 150))
      targets.push_back(s.base() | Ipv6Addr::from_halves(0, target::kFixedIid));
  }
  simnet::NetworkParams np;
  np.unlimited = true;
  simnet::Network net{topo_, np};
  prober::Yarrp6Config cfg;
  cfg.src = topo_.vantages()[0].src;
  cfg.pps = 100000;
  cfg.max_ttl = 20;
  topology::TraceCollector c;
  prober::Yarrp6Source source{cfg, targets};
  campaign::CampaignRunner::run_one(
      net, source, cfg.endpoint(), cfg.pacing(),
      [&](const wire::DecodedReply& r) { c.on_reply(r); });

  const auto rep = c.eui64_report();
  EXPECT_GT(rep.eui64_interfaces, 50u);
  EXPECT_GT(rep.frac_of_interfaces, 0.3);
  EXPECT_EQ(rep.offset_median, 0) << "CPEs are the last hop on path";
  // Every EUI-64 interface's OUI belongs to a configured CPE pool.
  for (const auto& iface : c.interfaces()) {
    if (const auto mac = eui64_extract(iface)) {
      EXPECT_TRUE(expected_ouis.contains(mac->oui()) || mac->oui() == 0x00155d)
          << iface.to_string();
    }
  }
}

TEST_F(EndToEndTest, CharacterizationMatchesCampaignReality) {
  // A target set's routed share bounds its trace-ability: unrouted targets
  // can only yield kUnrouted responses.
  const auto seed_list = seeds::make_fiebig(topo_, scale_, 5);
  const auto targets =
      target::synthesize_fixediid(target::transform_zn(seed_list, 64));
  const auto features = target::characterize(targets, topo_);
  ASSERT_GT(features.unique_targets, 0u);
  ASSERT_LT(features.routed_targets, features.unique_targets)
      << "fiebig must include unrouted rDNS space";

  simnet::NetworkParams np;
  np.unlimited = true;
  simnet::Network net{topo_, np};
  prober::Yarrp6Config cfg;
  cfg.src = topo_.vantages()[0].src;
  cfg.pps = 100000;
  topology::TraceCollector c;
  prober::Yarrp6Source source{cfg, targets.addrs};
  campaign::CampaignRunner::run_one(
      net, source, cfg.endpoint(), cfg.pacing(),
      [&](const wire::DecodedReply& r) { c.on_reply(r); });

  // Traces to unrouted targets never elicit responses from inside any
  // edge AS (only the core "no route" router).
  for (const auto& [t, tr] : c.traces()) {
    if (topo_.bgp().covers(t)) continue;
    for (const auto& [ttl, hop] : tr.hops) {
      if (hop.type != wire::Icmp6Type::kDestUnreachable) continue;
      EXPECT_EQ(hop.code, 0) << "unrouted targets end in 'no route'";
    }
  }
}

}  // namespace
}  // namespace beholder6
