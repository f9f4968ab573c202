// Tests for the baseline probers: sequential (scamper-like) semantics and
// Doubletree's stop-set behaviour, including the rate-limiting pathology.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "campaign/runner.hpp"
#include "prober/doubletree.hpp"
#include "prober/sequential.hpp"
#include "prober/yarrp6.hpp"
#include "topology/collector.hpp"

namespace beholder6::prober {
namespace {

/// One reply as the lockstep order sees it: (target, ttl, responder, type).
using ReplyKey = std::tuple<Ipv6Addr, std::uint8_t, Ipv6Addr, wire::Icmp6Type>;

struct CappedRun {
  ProbeStats stats;  // elapsed_virtual_us zeroed: it depends on the gap
  std::vector<ReplyKey> replies;
  bool finished = false;
};

class BaselineTest : public ::testing::Test {
 protected:
  BaselineTest() : topo_(simnet::TopologyParams{}) {}

  /// Run `source` alone on an unlimited network under `pacing`, stopping
  /// after a step budget far above what the campaign needs, so a source
  /// that never exhausts fails the test instead of hanging it.
  CappedRun run_capped(campaign::ProbeSource& source,
                       const campaign::Endpoint& endpoint,
                       const campaign::PacingPolicy& pacing) {
    simnet::NetworkParams np;
    np.unlimited = true;
    simnet::Network net{topo_, np};
    CappedRun out;
    campaign::CampaignRunner runner{net};
    runner.add(source, endpoint, pacing, [&](const wire::DecodedReply& r) {
      out.replies.emplace_back(r.probe.target, r.probe.ttl, r.responder, r.type);
    });
    constexpr std::size_t kStepCap = 10'000;
    for (std::size_t steps = 0; steps < kStepCap && runner.step(); ++steps) {
    }
    out.finished = runner.done();
    out.stats = runner.stats()[0];
    out.stats.elapsed_virtual_us = 0;
    return out;
  }

  std::vector<Ipv6Addr> university_targets(std::size_t n) {
    std::vector<Ipv6Addr> out;
    for (const auto& as : topo_.ases()) {
      if (as.type != simnet::AsType::kUniversity) continue;
      for (const auto& s : topo_.enumerate_subnets(as, n))
        out.push_back(s.base() | Ipv6Addr::from_halves(0, 1));
      if (out.size() >= n) break;
    }
    out.resize(std::min(out.size(), n));
    return out;
  }

  simnet::Topology topo_;
};

TEST_F(BaselineTest, SequentialTracesCompleteAtLowRate) {
  // At 20pps nothing is rate-limited and every hop responds in TTL order —
  // the paper's "nearly identical at 20pps" regime.
  simnet::Network net{topo_, simnet::NetworkParams{}};
  const auto targets = university_targets(8);
  ASSERT_GE(targets.size(), 4u);
  SequentialConfig cfg;
  cfg.src = topo_.vantages()[0].src;
  cfg.pps = 20;
  cfg.max_ttl = 16;
  topology::TraceCollector c;
  SequentialSource source{cfg, targets};
  const auto stats = campaign::CampaignRunner::run_one(
      net, source, cfg.endpoint(), cfg.pacing(),
      [&](const wire::DecodedReply& r) { c.on_reply(r); });
  EXPECT_GT(stats.replies, 0u);
  for (const auto& [t, tr] : c.traces()) {
    // Hops must be contiguous from TTL 1 to the path end (no rate loss).
    const auto plen = tr.path_len();
    for (std::uint8_t ttl = 1; ttl <= plen; ++ttl)
      EXPECT_TRUE(tr.hops.contains(ttl)) << "missing hop " << int(ttl);
  }
}

TEST_F(BaselineTest, SequentialStopsAtDestination) {
  // A reached target ends its trace: probes_sent is far below traces*maxttl
  // when targets are responsive gateways close by.
  simnet::Network net{topo_, simnet::NetworkParams{}};
  const auto targets = university_targets(8);
  SequentialConfig cfg;
  cfg.src = topo_.vantages()[0].src;
  cfg.pps = 20;
  cfg.max_ttl = 32;
  SequentialSource source{cfg, targets};
  const auto stats = campaign::CampaignRunner::run_one(
      net, source, cfg.endpoint(), cfg.pacing());
  EXPECT_LT(stats.probes_sent, targets.size() * 32u);
}

TEST_F(BaselineTest, SequentialGapLimitEndsDeadTraces) {
  // Unrouted targets stop after gap_limit silent hops past the last
  // responsive router, not at max_ttl.
  simnet::Network net{topo_, simnet::NetworkParams{}};
  std::vector<Ipv6Addr> dead{Ipv6Addr::must_parse("2a10:dead::1"),
                             Ipv6Addr::must_parse("2a10:beef::1")};
  SequentialConfig cfg;
  cfg.src = topo_.vantages()[0].src;
  cfg.pps = 20;
  cfg.max_ttl = 64;
  cfg.gap_limit = 4;
  SequentialSource source{cfg, dead};
  const auto stats = campaign::CampaignRunner::run_one(
      net, source, cfg.endpoint(), cfg.pacing());
  // Path to the "no route" router is ~6 hops; traces end well before 64.
  EXPECT_LT(stats.probes_sent, dead.size() * 24u);
}

TEST_F(BaselineTest, DoubletreeUsesStopSet) {
  // Probing many targets in the same university: initial hops are shared,
  // so backward probing should stop early and spend far fewer probes than
  // a full sequential sweep.
  simnet::Network net{topo_, simnet::NetworkParams{}};
  const auto targets = university_targets(40);
  ASSERT_GE(targets.size(), 20u);
  DoubletreeConfig cfg;
  cfg.src = topo_.vantages()[0].src;
  cfg.pps = 20;
  cfg.max_ttl = 16;
  cfg.start_ttl = 6;
  StopSet stop_set;
  DoubletreeSource source{cfg, targets, stop_set};
  const auto stats = campaign::CampaignRunner::run_one(
      net, source, cfg.endpoint(), cfg.pacing());
  EXPECT_GT(stop_set.size(), 0u);
  SequentialConfig scfg;
  scfg.src = cfg.src;
  scfg.pps = 20;
  scfg.max_ttl = 16;
  simnet::Network net2{topo_, simnet::NetworkParams{}};
  SequentialSource ssource{scfg, targets};
  const auto sstats = campaign::CampaignRunner::run_one(
      net2, ssource, scfg.endpoint(), scfg.pacing());
  EXPECT_LT(stats.probes_sent, sstats.probes_sent);
}

TEST_F(BaselineTest, DoubletreeKeepsDrainingSilentHopsBackward) {
  // The paper's observed pathology: at high rate, a rate-limited hop never
  // answers, so it never enters the stop set and backward probing keeps
  // walking down through it. Measured as probes with hop limit <= 2 sent in
  // the second half of the run: with a functioning stop set (unlimited
  // buckets, near hops answer early) there are none; with drained buckets
  // traces keep reaching TTLs 1..2 late into the campaign.
  std::vector<Ipv6Addr> targets;
  for (const auto& as : topo_.ases()) {
    if (as.type != simnet::AsType::kEyeballIsp) continue;
    for (const auto& s : topo_.enumerate_subnets(as, 200))
      targets.push_back(s.base() | Ipv6Addr::from_halves(0, 0x1234567812345678ULL));
  }
  targets.resize(std::min<std::size_t>(targets.size(), 300));
  DoubletreeConfig cfg;
  cfg.src = topo_.vantages()[0].src;
  cfg.pps = 2000;  // heavy rate limiting
  cfg.max_ttl = 16;
  cfg.start_ttl = 6;

  auto late_shallow_probes = [&](const simnet::NetworkParams& params) {
    simnet::Network net{topo_, params};
    std::vector<std::uint8_t> hop_limits;  // IPv6 header byte 7, per probe
    net.set_probe_observer(
        [&](const simnet::Packet& probe, std::span<const simnet::Packet>) {
          hop_limits.push_back(probe[7]);
        });
    StopSet stop_set;
    DoubletreeSource source{cfg, targets, stop_set};
    campaign::CampaignRunner::run_one(net, source, cfg.endpoint(), cfg.pacing());
    return std::count_if(hop_limits.begin() + hop_limits.size() / 2,
                         hop_limits.end(), [](std::uint8_t h) { return h <= 2; });
  };
  simnet::NetworkParams unlimited;
  unlimited.unlimited = true;
  const auto drained = late_shallow_probes(simnet::NetworkParams{});
  const auto healthy = late_shallow_probes(unlimited);
  EXPECT_GT(drained, 150) << "backward probing should keep draining silent hops";
  EXPECT_LT(healthy, 20) << "answered near hops should stop backward probing";
}

TEST_F(BaselineTest, DoubletreeDiscoveryFallsBetweenSequentialAndYarrp) {
  // §4.2's qualitative ordering under rate limiting at 1kpps.
  std::vector<Ipv6Addr> targets;
  for (const auto& as : topo_.ases()) {
    if (as.type != simnet::AsType::kEyeballIsp &&
        as.type != simnet::AsType::kUniversity)
      continue;
    for (const auto& s : topo_.enumerate_subnets(as, 120))
      targets.push_back(s.base() | Ipv6Addr::from_halves(0, 0x1234567812345678ULL));
  }
  targets.resize(std::min<std::size_t>(targets.size(), 400));

  auto run_collect = [&](campaign::ProbeSource& source, const auto& cfg) {
    simnet::Network net{topo_, simnet::NetworkParams{}};
    topology::TraceCollector c;
    campaign::CampaignRunner::run_one(
        net, source, cfg.endpoint(), cfg.pacing(),
        [&](const wire::DecodedReply& r) { c.on_reply(r); });
    return c.interfaces().size();
  };

  Yarrp6Config ycfg;
  ycfg.src = topo_.vantages()[0].src;
  ycfg.pps = 1000;
  SequentialConfig scfg;
  scfg.src = ycfg.src;
  scfg.pps = 1000;
  DoubletreeConfig dcfg;
  dcfg.src = ycfg.src;
  dcfg.pps = 1000;
  dcfg.start_ttl = 6;

  Yarrp6Source ysource{ycfg, targets};
  SequentialSource ssource{scfg, targets};
  StopSet stop_set;
  DoubletreeSource dsource{dcfg, targets, stop_set};
  const auto y = run_collect(ysource, ycfg);
  const auto s = run_collect(ssource, scfg);
  const auto d = run_collect(dsource, dcfg);
  EXPECT_GT(y, s);
  EXPECT_GE(d, s) << "Doubletree should suffer less than plain sequential";
  EXPECT_GE(y, d) << "randomization should still win";
}

// A zero in-burst gap puts a whole lockstep round on one send instant but
// must not change what the source sees: each probe's feedback still lands
// before the next poll, so on an unlimited network (no time-dependent
// replies) gap 0 and gap 1 give the same probes, replies and stop set.
TEST_F(BaselineTest, SequentialZeroGapMatchesUnitGap) {
  const auto targets = university_targets(40);
  ASSERT_GE(targets.size(), 20u);
  SequentialConfig cfg;
  cfg.src = topo_.vantages()[0].src;
  cfg.pps = 500;
  cfg.max_ttl = 14;

  auto run_at = [&](std::uint64_t gap_us) {
    cfg.line_rate_gap_us = gap_us;
    SequentialSource source{cfg, targets};
    return run_capped(source, cfg.endpoint(), cfg.pacing());
  };
  const auto zero = run_at(0);
  const auto unit = run_at(1);
  ASSERT_TRUE(unit.finished);
  ASSERT_TRUE(zero.finished) << "zero-gap campaign did not exhaust";
  EXPECT_GT(unit.stats.replies, 0u);
  EXPECT_EQ(zero.stats, unit.stats);
  EXPECT_EQ(zero.replies, unit.replies);
}

TEST_F(BaselineTest, DoubletreeZeroGapMatchesUnitGap) {
  const auto targets = university_targets(40);
  ASSERT_GE(targets.size(), 20u);
  DoubletreeConfig cfg;
  cfg.src = topo_.vantages()[0].src;
  cfg.pps = 500;
  cfg.max_ttl = 14;
  cfg.start_ttl = 6;

  auto run_at = [&](std::uint64_t gap_us, StopSet& stop_set) {
    cfg.line_rate_gap_us = gap_us;
    DoubletreeSource source{cfg, targets, stop_set};
    return run_capped(source, cfg.endpoint(), cfg.pacing());
  };
  StopSet zero_stop, unit_stop;
  const auto zero = run_at(0, zero_stop);
  const auto unit = run_at(1, unit_stop);
  ASSERT_TRUE(unit.finished);
  ASSERT_TRUE(zero.finished) << "zero-gap campaign did not exhaust";
  EXPECT_GT(unit_stop.size(), 0u);
  EXPECT_EQ(zero.stats, unit.stats);
  EXPECT_EQ(zero.replies, unit.replies);
  EXPECT_EQ(zero_stop.size(), unit_stop.size());
}

}  // namespace
}  // namespace beholder6::prober
