// Property suite for DynamicsSchedule and the Network's event application,
// driven by randomized (fixed-seed netbase::Rng) schedules checked against
// oracles:
//   * scoped route-cache invalidation is result-identical to the
//     whole-cache-flush oracle (DynamicsSchedule::whole_cache_flush) for
//     any schedule — the invalidation scope is a pure cost optimization;
//   * events apply in timestamp order on the virtual-clock boundary, with
//     ties in insertion order and last-writer-wins for model swaps;
//   * replicas replay the schedule identically: a schedule in the shared
//     params block yields byte-identical sweeps from any number of
//     replicas, and from run → reset → run on one;
//   * churn_candidate_routers, which resolves each /64 cell once, equals
//     resolving every target, and the churn schedules drawn from it are
//     the ones the per-target harvest gave.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "netbase/rng.hpp"
#include "simnet/dynamics.hpp"
#include "simnet/network.hpp"
#include "wire/probe.hpp"

namespace beholder6::simnet {
namespace {

class DynamicsPropertyTest : public ::testing::Test {
 protected:
  DynamicsPropertyTest() : topo_(TopologyParams{}) {}

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

  std::vector<Packet> sweep(Network& net, const std::vector<Ipv6Addr>& targets) {
    std::vector<Packet> replies;
    for (const auto& t : targets) {
      for (std::uint8_t ttl = 1; ttl <= 8; ++ttl) {
        const auto view = net.inject_view(probe_packet(t, ttl));
        replies.insert(replies.end(), view.begin(), view.end());
        net.advance_us(1000);
      }
    }
    return replies;
  }

  /// A random schedule of 4–11 events of every kind with timestamps drawn
  /// over [0, horizon): the adversarial input the oracle properties must
  /// survive. Pure in the Rng state.
  DynamicsSchedule random_schedule(Rng& rng,
                                   const std::vector<std::uint64_t>& routers,
                                   const std::vector<Ipv6Addr>& targets,
                                   std::uint64_t horizon_us) {
    DynamicsSchedule s;
    const auto n = 4 + rng.below(8);
    for (std::uint64_t i = 0; i < n; ++i) {
      DynamicsEvent ev;
      ev.at_us = rng.below(horizon_us);
      switch (rng.below(5)) {
        case 0:
          ev.kind = DynamicsKind::kLinkDown;
          ev.router_id = routers[rng.below(routers.size())];
          ev.silent = rng.chance(0.5);
          break;
        case 1:
          ev.kind = DynamicsKind::kLinkUp;
          ev.router_id = routers[rng.below(routers.size())];
          break;
        case 2:
          ev.kind = DynamicsKind::kEcmpReconverge;
          if (rng.chance(0.4)) {
            ev.cell_base = 0;
            ev.cell_mask = 0;  // global
          } else {
            ev.cell_mask = ~std::uint64_t{0xffff};
            ev.cell_base = targets[rng.below(targets.size())].hi() & ev.cell_mask;
          }
          ev.bump = 1 + rng.below(3);
          break;
        case 3:
          ev.kind = DynamicsKind::kRateLimitScale;
          ev.rate_scale = 0.25 + 0.25 * static_cast<double>(rng.below(6));
          break;
        default:
          ev.kind = DynamicsKind::kLossModel;
          ev.reply_loss = static_cast<double>(rng.below(30)) / 100.0;
          ev.reply_dup = static_cast<double>(rng.below(20)) / 100.0;
          break;
      }
      s.add(ev);
    }
    return s;
  }

  /// Targets in existing, missing and unrouted cells, with several IIDs
  /// per /64 and repeats, so a cell's first target is not always its
  /// lowest or its only one.
  std::vector<Ipv6Addr> mixed_targets() {
    std::vector<Ipv6Addr> targets;
    Rng rng{splitmix64(7)};
    for (const auto& as : topo_.ases()) {
      for (const auto& s : topo_.enumerate_subnets(as, 3)) {
        const auto hi = s.base().hi();
        targets.push_back(Ipv6Addr::from_halves(hi, 0x42));
        targets.push_back(Ipv6Addr::from_halves(hi, 1));
        targets.push_back(Ipv6Addr::from_halves(hi, rng()));
      }
      // Cells that may not exist, and one outside every announcement.
      const auto& p = as.prefixes.back();
      targets.push_back(Ipv6Addr::from_halves(
          p.base().hi() | (rng() >> std::min(p.len(), 63u)), rng()));
      targets.push_back(Ipv6Addr::from_halves((0xfc00ULL << 48) | (rng() >> 16), 1));
    }
    const auto n = targets.size();
    for (std::size_t i = 0; i < n; i += 5) targets.push_back(targets[n - 1 - i]);
    return targets;
  }

  /// Reference harvest: resolve every target, not every cell, at both
  /// ECMP variants, then sort and unique the router ids.
  std::vector<std::uint64_t> per_target_harvest(
      const VantageInfo& vantage, const std::vector<Ipv6Addr>& targets) {
    std::vector<std::uint64_t> ids;
    for (const auto& target : targets) {
      for (std::uint64_t variant = 0; variant < kEcmpVariantPeriod; ++variant) {
        const auto path = topo_.path(vantage, target, variant,
                                     static_cast<std::uint8_t>(wire::Proto::kIcmp6));
        for (std::size_t i = vantage.premise_hops; i < path.hops.size(); ++i)
          ids.push_back(path.hops[i].router_id);
      }
    }
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    return ids;
  }

  static NetworkParams with_schedule(DynamicsSchedule schedule) {
    NetworkParams np;
    np.dynamics = std::make_shared<const DynamicsSchedule>(std::move(schedule));
    return np;
  }

  Topology topo_;
};

TEST_F(DynamicsPropertyTest, ScheduleSortsByTimestampStably) {
  DynamicsSchedule s;
  auto ev = [](std::uint64_t at, std::uint64_t router) {
    DynamicsEvent e;
    e.at_us = at;
    e.router_id = router;  // marker to observe ordering
    return e;
  };
  s.add(ev(500, 1));
  s.add(ev(100, 2));
  s.add(ev(500, 3));  // tie with the first: must stay after it
  s.add(ev(300, 4));
  s.add(ev(100, 5));  // tie: after router 2
  ASSERT_EQ(s.events().size(), 5u);
  const auto& evs = s.events();
  for (std::size_t i = 1; i < evs.size(); ++i)
    EXPECT_LE(evs[i - 1].at_us, evs[i].at_us) << "sorted by timestamp";
  EXPECT_EQ(evs[0].router_id, 2u);
  EXPECT_EQ(evs[1].router_id, 5u);
  EXPECT_EQ(evs[2].router_id, 4u);
  EXPECT_EQ(evs[3].router_id, 1u);
  EXPECT_EQ(evs[4].router_id, 3u);
}

TEST_F(DynamicsPropertyTest, EventsApplyOnTheClockBoundaryInTimestampOrder) {
  // Two loss-model swaps, deliberately added out of timestamp order: full
  // loss from 1000 us, healthy again from 2000 us. A probe strictly before
  // an event's at_us must not see it; between, the first event rules; at or
  // past the second, last-writer-wins restores the original model.
  const auto targets = some_targets(1);
  ASSERT_EQ(targets.size(), 1u);
  DynamicsSchedule s;
  DynamicsEvent heal;
  heal.kind = DynamicsKind::kLossModel;
  heal.at_us = 2000;
  s.add(heal);  // added first, due second
  DynamicsEvent blackout;
  blackout.kind = DynamicsKind::kLossModel;
  blackout.reply_loss = 1.0;
  blackout.at_us = 1000;
  s.add(blackout);
  Network net{topo_, with_schedule(std::move(s))};

  const auto pkt = probe_packet(targets[0], 1);
  EXPECT_EQ(net.inject_view(pkt).size(), 1u) << "before any event";
  EXPECT_EQ(net.stats().dynamics_events, 0u);

  net.advance_us(1500);  // now 1500: blackout due, heal not yet
  EXPECT_EQ(net.inject_view(pkt).size(), 0u) << "total loss in effect";
  EXPECT_EQ(net.stats().lost_replies, 1u);
  EXPECT_EQ(net.stats().dynamics_events, 1u);

  net.advance_us(500);  // now 2000: heal due exactly at its timestamp
  EXPECT_EQ(net.inject_view(pkt).size(), 1u) << "model restored";
  EXPECT_EQ(net.stats().lost_replies, 1u);
  EXPECT_EQ(net.stats().dynamics_events, 2u);
}

TEST_F(DynamicsPropertyTest, ScopedInvalidationEqualsWholeFlushOracle) {
  // For randomized schedules, scoped route-cache invalidation must be
  // result-identical to flushing the whole cache on every re-convergence:
  // same reply bytes, behaviourally equal stats. Only the invalidation
  // cost may differ (the oracle drops at least as many entries).
  const auto targets = some_targets(12);
  ASSERT_GE(targets.size(), 6u);
  const auto routers = churn_candidate_routers(
      topo_, topo_.vantages()[0],
      std::span<const Ipv6Addr>(targets.data(), targets.size()));
  ASSERT_FALSE(routers.empty());

  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng{splitmix64(seed)};
    // The sweep spans 12 targets × 8 TTLs × 1000 us = 96 ms of virtual
    // time; draw timestamps inside it so events really interleave probes.
    auto scoped = random_schedule(rng, routers, targets, 90000);
    auto oracle = scoped;  // identical events...
    oracle.whole_cache_flush = true;  // ...maximal invalidation scope

    Network a{topo_, with_schedule(std::move(scoped))};
    Network b{topo_, with_schedule(std::move(oracle))};
    const auto replies_a = sweep(a, targets);
    const auto replies_b = sweep(b, targets);
    EXPECT_EQ(replies_a, replies_b) << "seed " << seed;
    EXPECT_EQ(a.stats(), b.stats()) << "seed " << seed;
    EXPECT_EQ(a.stats().dynamics_events, b.stats().dynamics_events);
    EXPECT_GE(b.stats().route_invalidations, a.stats().route_invalidations)
        << "the flush oracle can only drop more, seed " << seed;
  }
}

TEST_F(DynamicsPropertyTest, ReplicasReplayTheScheduleIdentically) {
  // One schedule in the shared params block: every replica, and every
  // run → reset → run cycle of one network, replays it byte-for-byte.
  const auto targets = some_targets(8);
  ASSERT_GE(targets.size(), 4u);
  const auto routers = churn_candidate_routers(
      topo_, topo_.vantages()[0],
      std::span<const Ipv6Addr>(targets.data(), targets.size()));
  Rng rng{splitmix64(42)};
  const auto params = std::make_shared<const NetworkParams>(
      with_schedule(random_schedule(rng, routers, targets, 60000)));
  Network net{topo_, params};

  Network r1{topo_, params};
  Network r2{topo_, params};
  const auto from_r1 = sweep(r1, targets);
  const auto from_r2 = sweep(r2, targets);
  EXPECT_EQ(from_r1, from_r2);
  EXPECT_EQ(r1.stats(), r2.stats());
  EXPECT_EQ(r1.stats().dynamics_events, r2.stats().dynamics_events);
  EXPECT_GT(r1.stats().dynamics_events, 0u);

  // A third network over the block (whose cursor the replicas never
  // touched) and a reset replica agree too.
  const auto from_net = sweep(net, targets);
  EXPECT_EQ(from_net, from_r1);
  r1.reset();
  EXPECT_EQ(sweep(r1, targets), from_r1);
}

TEST_F(DynamicsPropertyTest, CellHarvestEqualsPerTargetHarvest) {
  const auto targets = mixed_targets();
  ASSERT_GT(targets.size(), 1000u);
  for (const auto& v : topo_.vantages()) {
    const auto want = per_target_harvest(v, targets);
    ASSERT_FALSE(want.empty());
    EXPECT_EQ(churn_candidate_routers(topo_, v, targets), want) << v.name;
    // Only the set of cells matters, not their order or multiplicity.
    auto shuffled = targets;
    std::reverse(shuffled.begin(), shuffled.end());
    EXPECT_EQ(churn_candidate_routers(topo_, v, shuffled), want) << v.name;
  }
  EXPECT_TRUE(churn_candidate_routers(topo_, topo_.vantages()[0], {}).empty());
}

TEST_F(DynamicsPropertyTest, ChurnSchedulesMatchThePerTargetHarvest) {
  // FNV-1a over every event field. The pins were computed with the
  // per-target harvest; the cell harvest must leave every schedule
  // bit-identical.
  auto digest = [](const DynamicsSchedule& s) {
    std::uint64_t h = 1469598103934665603ULL;
    auto mix = [&h](std::uint64_t x) { h = (h ^ x) * 1099511628211ULL; };
    for (const auto& ev : s.events()) {
      mix(ev.at_us);
      mix(static_cast<std::uint64_t>(ev.kind));
      mix(ev.router_id);
      mix(ev.silent);
      mix(ev.cell_base);
      mix(ev.cell_mask);
      mix(ev.bump);
      mix(static_cast<std::uint64_t>(ev.rate_scale * 1000));
      mix(static_cast<std::uint64_t>(ev.reply_loss * 1000));
      mix(static_cast<std::uint64_t>(ev.reply_dup * 1000));
    }
    return h;
  };
  const std::uint64_t pinned[] = {17001004273204331559ULL, 10030475780153179544ULL,
                                  13088748173991851747ULL, 12254536432933910785ULL};
  const auto targets = mixed_targets();
  const auto& v = topo_.vantages()[0];
  const auto reference = per_target_harvest(v, targets);
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    ChurnParams cp;
    cp.seed = seed;
    const auto s = make_churn_schedule(topo_, v, targets, cp);
    EXPECT_EQ(digest(s), pinned[seed - 1]) << "seed " << seed;
    unsigned downs = 0;
    for (const auto& ev : s.events()) {
      if (ev.kind != DynamicsKind::kLinkDown) continue;
      ++downs;
      EXPECT_TRUE(std::binary_search(reference.begin(), reference.end(), ev.router_id))
          << "seed " << seed;
    }
    EXPECT_EQ(downs, 2u) << "seed " << seed;
  }
}

}  // namespace
}  // namespace beholder6::simnet
