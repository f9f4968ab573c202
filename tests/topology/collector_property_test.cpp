// Campaign-level properties of the trace collector against real campaigns:
// conservation laws and internal consistency that every bench relies on.
#include <gtest/gtest.h>

#include "campaign/runner.hpp"
#include "netbase/eui64.hpp"
#include "prober/yarrp6.hpp"
#include "simnet/network.hpp"
#include "topology/collector.hpp"

namespace beholder6::topology {
namespace {

class CollectorCampaign : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  CollectorCampaign() : topo_(simnet::TopologyParams{.seed = GetParam()}) {}

  std::vector<Ipv6Addr> targets(std::size_t n) {
    std::vector<Ipv6Addr> out;
    for (const auto& as : topo_.ases()) {
      for (const auto& s : topo_.enumerate_subnets(as, 5))
        out.push_back(s.base() | Ipv6Addr::from_halves(0, 0x1234567812345678ULL));
      if (out.size() >= n) break;
    }
    out.resize(std::min(out.size(), n));
    return out;
  }

  simnet::Topology topo_;
};

TEST_P(CollectorCampaign, ConservationAcrossProberNetworkCollector) {
  simnet::Network net{topo_};
  prober::Yarrp6Config cfg;
  cfg.src = topo_.vantages()[0].src;
  cfg.pps = 1000;
  cfg.max_ttl = 16;
  TraceCollector c;
  const auto t = targets(120);
  prober::Yarrp6Source source{cfg, t};
  const auto stats = campaign::CampaignRunner::run_one(
      net, source, cfg.endpoint(), cfg.pacing(),
      [&](const wire::DecodedReply& r) { c.on_reply(r); });

  EXPECT_EQ(stats.probes_sent, net.stats().probes);
  EXPECT_EQ(stats.replies, net.stats().responses());
  EXPECT_EQ(c.te_responses() + c.non_te_responses(), stats.replies);
  EXPECT_EQ(c.te_responses(), net.stats().time_exceeded);
  // Interfaces are exactly the distinct Time Exceeded sources, and a
  // subset of all responders.
  for (const auto& iface : c.interfaces())
    EXPECT_TRUE(c.responders().contains(iface));
  EXPECT_LE(c.interfaces().size(), c.responders().size());
}

TEST_P(CollectorCampaign, TracesAreInternallyConsistent) {
  simnet::NetworkParams np;
  np.unlimited = true;
  simnet::Network net{topo_, np};
  prober::Yarrp6Config cfg;
  cfg.src = topo_.vantages()[0].src;
  cfg.pps = 100000;
  cfg.max_ttl = 16;
  TraceCollector c;
  const auto t = targets(100);
  prober::Yarrp6Source source{cfg, t};
  campaign::CampaignRunner::run_one(
      net, source, cfg.endpoint(), cfg.pacing(),
      [&](const wire::DecodedReply& r) { c.on_reply(r); });

  for (const auto& [target, tr] : c.traces()) {
    EXPECT_EQ(tr.target, target);
    const auto plen = tr.path_len();
    const auto hops = tr.router_hops();
    // Path length is the highest TE TTL; router_hops returns that many or
    // fewer (missing intermediate TTLs are gaps, not hops).
    EXPECT_LE(hops.size(), static_cast<std::size_t>(plen));
    for (const auto& [ttl, hop] : tr.hops) {
      EXPECT_GE(ttl, 1);
      EXPECT_LE(ttl, 32);
      if (hop.type == wire::Icmp6Type::kTimeExceeded) {
        EXPECT_LE(ttl, plen);
      }
      // Every hop interface appears in the campaign's responder set.
      EXPECT_TRUE(c.responders().contains(hop.iface));
    }
  }
}

TEST_P(CollectorCampaign, DiscoveryCurveEndsAtFinalInterfaceCount) {
  simnet::NetworkParams np;
  np.unlimited = true;
  simnet::Network net{topo_, np};
  prober::Yarrp6Config cfg;
  cfg.src = topo_.vantages()[0].src;
  cfg.pps = 100000;
  cfg.max_ttl = 12;
  TraceCollector c;
  const auto t = targets(150);
  prober::Yarrp6Source source{cfg, t};
  campaign::CampaignRunner::run_one(
      net, source, cfg.endpoint(), cfg.pacing(),
      [&](const wire::DecodedReply& r) { c.on_reply(r); });
  const auto& curve = c.discovery_curve();
  ASSERT_FALSE(curve.empty());
  std::uint64_t prev_probes = 0, prev_ifaces = 0;
  for (const auto& s : curve) {
    EXPECT_GE(s.probes, prev_probes);
    EXPECT_GE(s.unique_interfaces, prev_ifaces);
    prev_probes = s.probes;
    prev_ifaces = s.unique_interfaces;
  }
  EXPECT_LE(curve.back().unique_interfaces, c.interfaces().size());
}

TEST_P(CollectorCampaign, Eui64ReportAgreesWithDirectClassification) {
  simnet::NetworkParams np;
  np.unlimited = true;
  simnet::Network net{topo_, np};
  prober::Yarrp6Config cfg;
  cfg.src = topo_.vantages()[0].src;
  cfg.pps = 100000;
  cfg.max_ttl = 16;
  TraceCollector c;
  // Eyeball-heavy targets so EUI-64 CPE gateways appear.
  std::vector<Ipv6Addr> t;
  for (const auto& as : topo_.ases()) {
    if (as.type != simnet::AsType::kEyeballIsp) continue;
    for (const auto& s : topo_.enumerate_subnets(as, 40))
      t.push_back(s.base() | Ipv6Addr::from_halves(0, 0x1234567812345678ULL));
  }
  ASSERT_GT(t.size(), 50u);
  prober::Yarrp6Source source{cfg, t};
  campaign::CampaignRunner::run_one(
      net, source, cfg.endpoint(), cfg.pacing(),
      [&](const wire::DecodedReply& r) { c.on_reply(r); });

  std::size_t direct = 0;
  for (const auto& iface : c.interfaces()) direct += is_eui64(iface);
  const auto rep = c.eui64_report();
  EXPECT_EQ(rep.eui64_interfaces, direct);
  if (!c.interfaces().empty()) {
    EXPECT_DOUBLE_EQ(rep.frac_of_interfaces,
                     static_cast<double>(direct) /
                         static_cast<double>(c.interfaces().size()));
  }
  EXPECT_GE(rep.offset_median, rep.offset_p5) << "median >= 5th percentile";
  EXPECT_LE(rep.offset_median, 0) << "CPE gateways are last hops";
}

TEST_P(CollectorCampaign, PercentilesAreOrderedAndBounded) {
  simnet::NetworkParams np;
  np.unlimited = true;
  simnet::Network net{topo_, np};
  prober::Yarrp6Config cfg;
  cfg.src = topo_.vantages()[0].src;
  cfg.pps = 100000;
  cfg.max_ttl = 16;
  TraceCollector c;
  const auto t = targets(100);
  prober::Yarrp6Source source{cfg, t};
  campaign::CampaignRunner::run_one(
      net, source, cfg.endpoint(), cfg.pacing(),
      [&](const wire::DecodedReply& r) { c.on_reply(r); });
  const auto p50 = c.path_len_percentile(0.5);
  const auto p95 = c.path_len_percentile(0.95);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, 16);
  EXPECT_GT(p50, 0);
}

INSTANTIATE_TEST_SUITE_P(Worlds, CollectorCampaign, ::testing::Values(1, 7, 20180514));

}  // namespace
}  // namespace beholder6::topology
