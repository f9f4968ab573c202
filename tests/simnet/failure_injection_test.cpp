// Failure-injection tests: in-flight reply loss and how the pipeline
// degrades (collector gaps, conservative path-divergence behaviour), plus
// the churn suite — mid-campaign link failure/recovery driven by a
// DynamicsSchedule, checking the wire-level reply semantics (no-route
// unreachables vs silent loss per the event's config), path healing on
// recovery, and run → reset → run byte-identity with a schedule active.
#include <gtest/gtest.h>

#include <memory>

#include "analysis/pathdiv.hpp"
#include "campaign/runner.hpp"
#include "prober/yarrp6.hpp"
#include "simnet/dynamics.hpp"
#include "simnet/network.hpp"
#include "support/conservation.hpp"
#include "target/synthesis.hpp"
#include "topology/collector.hpp"
#include "wire/probe.hpp"

namespace beholder6::simnet {
namespace {

class FailureInjectionTest : public ::testing::Test {
 protected:
  FailureInjectionTest() : topo_(TopologyParams{}) {}

  std::vector<Ipv6Addr> university_targets(std::size_t n) {
    std::vector<Ipv6Addr> out;
    for (const auto& as : topo_.ases()) {
      if (as.type != AsType::kUniversity) continue;
      // The paper's divergence rules reject last hops inside the vantage's
      // own ASN; probe a university we are not homed in.
      if (as.asn == topo_.vantages()[0].asn) continue;
      for (const auto& s : topo_.enumerate_subnets(as, n))
        out.push_back(s.base() | Ipv6Addr::from_halves(0, target::kFixedIid));
      if (out.size() >= n) break;
    }
    out.resize(std::min(out.size(), n));
    return out;
  }

  topology::TraceCollector run(double loss, prober::ProbeStats* stats_out = nullptr) {
    // Reply loss comes only from a kLossModel event; at at_us 0 it applies
    // before the first probe.
    DynamicsSchedule schedule;
    DynamicsEvent ev;
    ev.kind = DynamicsKind::kLossModel;
    ev.reply_loss = loss;
    schedule.add(ev);
    NetworkParams np;
    np.unlimited = true;
    np.dynamics = std::make_shared<const DynamicsSchedule>(std::move(schedule));
    Network net{topo_, np};
    prober::Yarrp6Config cfg;
    cfg.src = topo_.vantages()[0].src;
    cfg.pps = 100000;
    cfg.max_ttl = 16;
    topology::TraceCollector c;
    const auto targets = university_targets(60);
    prober::Yarrp6Source source{cfg, targets};
    const auto stats = campaign::CampaignRunner::run_one(
        net, source, cfg.endpoint(), cfg.pacing(),
        [&](const wire::DecodedReply& r) { c.on_reply(r); });
    if (stats_out) *stats_out = stats;
    last_net_stats_ = net.stats();
    test_support::expect_campaign_conserved(stats, last_net_stats_);
    test_support::expect_collector_conserved(c, stats.replies);
    return c;
  }

  Topology topo_;
  NetworkStats last_net_stats_;
};

TEST_F(FailureInjectionTest, LossRateIsRespected) {
  prober::ProbeStats clean_stats, lossy_stats;
  (void)run(0.0, &clean_stats);
  const auto clean_lost = last_net_stats_.lost_replies;
  (void)run(0.3, &lossy_stats);
  EXPECT_EQ(clean_lost, 0u);
  const double observed = static_cast<double>(last_net_stats_.lost_replies) /
                          static_cast<double>(last_net_stats_.probes);
  EXPECT_NEAR(observed, 0.3, 0.05);
  EXPECT_LT(lossy_stats.replies, clean_stats.replies);
}

TEST_F(FailureInjectionTest, LossIsDeterministic) {
  prober::ProbeStats a, b;
  (void)run(0.25, &a);
  (void)run(0.25, &b);
  EXPECT_EQ(a.replies, b.replies);
}

TEST_F(FailureInjectionTest, TracesDevelopGaps) {
  const auto clean = run(0.0);
  const auto lossy = run(0.4);
  auto gap_count = [](const topology::TraceCollector& c) {
    std::size_t gaps = 0;
    for (const auto& [t, tr] : c.traces()) {
      const auto plen = tr.path_len();
      for (std::uint8_t ttl = 1; ttl <= plen; ++ttl)
        gaps += !tr.hops.contains(ttl);
    }
    return gaps;
  };
  EXPECT_EQ(gap_count(clean), 0u) << "no gaps without loss (unlimited buckets)";
  EXPECT_GT(gap_count(lossy), 10u);
}

TEST_F(FailureInjectionTest, PathDivergenceStaysConservativeUnderLoss) {
  // The forbid-missing-in-LCS rule must reject gappy pairs rather than
  // infer from them: candidates under loss are a subset-ish, never wilder.
  const auto clean = run(0.0);
  const auto lossy = run(0.5);
  const auto& vantage = topo_.vantages()[0];
  const auto res_clean = analysis::discover_by_path_div(clean, topo_, vantage);
  const auto res_lossy = analysis::discover_by_path_div(lossy, topo_, vantage);
  EXPECT_LT(res_lossy.pairs_divergent, res_clean.pairs_divergent);
  // Every lossy candidate is still truth-consistent (lower bound holds).
  for (const auto& cand : res_lossy.candidates) {
    const auto truth = topo_.true_subnet(cand.target);
    ASSERT_TRUE(truth);
    EXPECT_LE(cand.min_prefix_len, 64u);
  }
}

// ---- Churn suite ----------------------------------------------------------
//
// Direct-injection tests for scheduled link failure and recovery: the
// reply-semantics contract of DynamicsKind::kLinkDown/kLinkUp, at the
// wire level, with the clock under test control.
class ChurnTest : public ::testing::Test {
 protected:
  ChurnTest() : topo_(TopologyParams{}) {}

  std::vector<Ipv6Addr> some_targets(std::size_t want) {
    std::vector<Ipv6Addr> targets;
    for (const auto& as : topo_.ases()) {
      if (as.type != AsType::kEyeballIsp) continue;
      for (const auto& s : topo_.enumerate_subnets(as, 2)) {
        targets.push_back(Ipv6Addr::from_halves(s.base().hi(), 0x42));
        if (targets.size() == want) return targets;
      }
    }
    return targets;
  }

  Packet probe_packet(const Ipv6Addr& target, std::uint8_t ttl) {
    wire::ProbeSpec s;
    s.src = topo_.vantages()[0].src;
    s.target = target;
    s.proto = wire::Proto::kIcmp6;
    s.ttl = ttl;
    return wire::encode_probe(s);
  }

  /// The exact forwarding path the probes toward `target` take (every TTL
  /// of a target shares one flow variant — the checksum-fudge contract the
  /// replica tests pin), and the index of a mid-path router on it.
  struct ProbePath {
    Path path;
    std::size_t mid_hop;  ///< first hop past the premise chain + 1
  };
  ProbePath probe_path(const Ipv6Addr& target) {
    const auto key = Network::probe_route_key(topo_, probe_packet(target, 1));
    EXPECT_TRUE(key.has_value());
    const auto& vantage = topo_.vantages()[0];
    ProbePath pp{topo_.path(vantage, target, key->flow_variant,
                            key->next_header),
                 vantage.premise_hops + 1};
    EXPECT_LT(pp.mid_hop + 1, pp.path.hops.size());
    return pp;
  }

  /// TTL sweep with 1000 us pacing; returns every reply's raw bytes.
  std::vector<Packet> sweep(Network& net, const std::vector<Ipv6Addr>& targets,
                            std::uint8_t max_ttl) {
    std::vector<Packet> replies;
    for (const auto& t : targets) {
      for (std::uint8_t ttl = 1; ttl <= max_ttl; ++ttl) {
        const auto view = net.inject_view(probe_packet(t, ttl));
        replies.insert(replies.end(), view.begin(), view.end());
        net.advance_us(1000);
      }
    }
    return replies;
  }

  static NetworkParams with_schedule(DynamicsSchedule schedule) {
    NetworkParams np;
    np.unlimited = true;
    np.dynamics = std::make_shared<const DynamicsSchedule>(std::move(schedule));
    return np;
  }

  Topology topo_;
};

TEST_F(ChurnTest, LinkDownYieldsOneNoRouteUnreachableThenSilence) {
  const auto targets = some_targets(1);
  ASSERT_EQ(targets.size(), 1u);
  const auto pp = probe_path(targets[0]);
  const auto dead_id = pp.path.hops[pp.mid_hop].router_id;

  DynamicsSchedule schedule;
  DynamicsEvent down;
  down.kind = DynamicsKind::kLinkDown;
  down.router_id = dead_id;
  down.at_us = 0;  // due before the first probe
  schedule.add(down);
  Network net{topo_, with_schedule(std::move(schedule))};

  const auto replies = sweep(net, targets, 12);
  // TTLs expiring at live hops in front of the failure answer Time
  // Exceeded exactly as on a healthy path...
  EXPECT_EQ(net.stats().time_exceeded, pp.mid_hop);
  // ...the first probe to reach the dead router draws one "no route"
  // unreachable from the hop before it...
  EXPECT_EQ(net.stats().dest_unreach[static_cast<unsigned>(
                wire::UnreachCode::kNoRoute)],
            1u);
  EXPECT_EQ(test_support::dest_unreach_total(net.stats()), 1u);
  // ...and everything deeper is silence (once-per-target DU suppression).
  EXPECT_EQ(net.stats().echo_replies, 0u);
  EXPECT_EQ(replies.size(), pp.mid_hop + 1);
  EXPECT_EQ(net.stats().dynamics_events, 1u);

  // The unreachable is originated by the router in front of the dead one.
  const auto du = wire::decode_reply(replies.back(), 0);
  ASSERT_TRUE(du.has_value());
  EXPECT_EQ(du->responder, pp.path.hops[pp.mid_hop - 1].iface);
}

TEST_F(ChurnTest, SilentLinkDownDropsWithoutUnreachables) {
  const auto targets = some_targets(1);
  ASSERT_EQ(targets.size(), 1u);
  const auto pp = probe_path(targets[0]);

  DynamicsSchedule schedule;
  DynamicsEvent down;
  down.kind = DynamicsKind::kLinkDown;
  down.router_id = pp.path.hops[pp.mid_hop].router_id;
  down.silent = true;
  down.at_us = 0;
  schedule.add(down);
  Network net{topo_, with_schedule(std::move(schedule))};

  const auto replies = sweep(net, targets, 12);
  EXPECT_EQ(net.stats().time_exceeded, pp.mid_hop);
  EXPECT_EQ(test_support::dest_unreach_total(net.stats()), 0u);
  EXPECT_EQ(replies.size(), pp.mid_hop);
  EXPECT_GE(net.stats().silent_drops, 12u - pp.mid_hop);
}

TEST_F(ChurnTest, RecoveryRestoresPathsByteForByte) {
  const auto targets = some_targets(1);
  ASSERT_EQ(targets.size(), 1u);
  const auto pp = probe_path(targets[0]);
  const auto ttl = static_cast<std::uint8_t>(pp.mid_hop + 1);

  DynamicsSchedule schedule;
  DynamicsEvent down;
  down.kind = DynamicsKind::kLinkDown;
  down.router_id = pp.path.hops[pp.mid_hop].router_id;
  down.at_us = 5000;
  schedule.add(down);
  DynamicsEvent up;
  up.kind = DynamicsKind::kLinkUp;
  up.router_id = down.router_id;
  up.at_us = 10000;
  schedule.add(up);
  Network net{topo_, with_schedule(std::move(schedule))};

  // Before the failure: Time Exceeded from the (future) dead router.
  const auto pkt = probe_packet(targets[0], ttl);
  const auto before = net.inject_view(pkt);
  ASSERT_EQ(before.size(), 1u);
  const Packet before_bytes = before[0];
  EXPECT_EQ(net.stats().time_exceeded, 1u);

  // During: the probe dies at the failed router; the previous hop answers.
  net.advance_us(6000);
  const auto during = net.inject_view(pkt);
  ASSERT_EQ(during.size(), 1u);
  EXPECT_EQ(net.stats().dest_unreach[static_cast<unsigned>(
                wire::UnreachCode::kNoRoute)],
            1u);

  // After recovery: the identical probe draws the identical Time Exceeded.
  net.advance_us(6000);
  const auto after = net.inject_view(pkt);
  ASSERT_EQ(after.size(), 1u);
  EXPECT_EQ(Packet(after[0]), before_bytes);
  EXPECT_EQ(net.stats().time_exceeded, 2u);
  EXPECT_EQ(net.stats().dynamics_events, 2u);
}

TEST_F(ChurnTest, RunResetRunWithScheduleIsByteIdentical) {
  const auto targets = some_targets(8);
  ASSERT_GE(targets.size(), 4u);
  // A full generated schedule (failures, re-convergences, rate and loss
  // swaps) inside the sweep's virtual duration, so every event fires.
  ChurnParams cp;
  cp.seed = 7;
  cp.horizon_us = 40000;
  auto schedule = make_churn_schedule(
      topo_, topo_.vantages()[0],
      std::span<const Ipv6Addr>(targets.data(), targets.size()), cp);
  const auto n_events = schedule.events().size();
  ASSERT_GT(n_events, 0u);
  Network net{topo_, with_schedule(std::move(schedule))};

  const auto first = sweep(net, targets, 8);
  const auto first_stats = net.stats();
  EXPECT_EQ(first_stats.dynamics_events, n_events)
      << "every scheduled event fired inside the sweep's virtual horizon";

  net.reset();
  const auto second = sweep(net, targets, 8);
  EXPECT_EQ(first, second);
  EXPECT_EQ(first_stats, net.stats());
  EXPECT_EQ(net.stats().dynamics_events, n_events);
}

}  // namespace
}  // namespace beholder6::simnet
