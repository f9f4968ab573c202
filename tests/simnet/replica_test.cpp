// Tests for the Network's immutable tier — the shared parameter block,
// replica isolation, and the read-only route snapshot
// (set_shared_routes) the parallel backend warms once and shares across
// every worker replica. The load-bearing claims: replicas share nothing
// mutable, a warmed snapshot changes cost counters but never a reply byte,
// and probe_route_key recovers exactly the key resolve_path uses.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "simnet/dynamics.hpp"
#include "simnet/network.hpp"
#include "wire/probe.hpp"

namespace beholder6::simnet {
namespace {

using wire::Proto;

class ReplicaTest : public ::testing::Test {
 protected:
  ReplicaTest()
      : topo_(TopologyParams{}),
        params_(std::make_shared<const NetworkParams>()),
        net_(topo_, NetworkParams{}) {}

  /// A handful of probeable /64 targets spread over eyeball ASes.
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

  Packet probe_packet(const Ipv6Addr& target, std::uint8_t ttl,
                      std::uint32_t elapsed_us = 0) {
    wire::ProbeSpec s;
    s.src = topo_.vantages()[0].src;
    s.target = target;
    s.proto = Proto::kIcmp6;
    s.ttl = ttl;
    s.elapsed_us = elapsed_us;
    return wire::encode_probe(s);
  }

  /// Inject a TTL sweep over `targets` into `net` and return every reply's
  /// raw bytes, in order — the strongest byte-identical comparison.
  std::vector<Packet> sweep(Network& net, const std::vector<Ipv6Addr>& targets) {
    std::vector<Packet> replies;
    for (const auto& t : targets) {
      for (std::uint8_t ttl = 1; ttl <= 8; ++ttl) {
        const auto view = net.inject_view(
            probe_packet(t, ttl, static_cast<std::uint32_t>(net.now_us())));
        replies.insert(replies.end(), view.begin(), view.end());
        net.advance_us(1000);
      }
    }
    return replies;
  }

  /// Warm a read-only snapshot covering `targets`, the way the parallel
  /// backend's run() does: recover each probe's route key from its wire
  /// bytes, resolve via the path oracle, insert in first-seen order.
  std::shared_ptr<const RouteCache> warm_snapshot(
      const std::vector<Ipv6Addr>& targets) {
    auto cache = std::make_shared<RouteCache>();
    for (const auto& t : targets) {
      const auto key = Network::probe_route_key(topo_, probe_packet(t, 1));
      if (!key || cache->find(key->key)) continue;
      (void)cache->insert(
          key->key, topo_.path(topo_.vantages()[key->vantage_index], key->dst,
                               key->flow_variant, key->next_header));
    }
    return cache;
  }

  Topology topo_;
  std::shared_ptr<const NetworkParams> params_;
  Network net_;
};

TEST_F(ReplicaTest, ReplicaSharesParamsBlockWithoutCopying) {
  const Network replica{topo_, params_};
  // Same immutable block, by pointer — not an equal copy.
  EXPECT_EQ(params_.use_count(), 2);
  // The sharing constructor counts itself; net_ was built the
  // param-copying way and counts nothing.
  EXPECT_EQ(net_.stats().replica_builds, 0u);
  EXPECT_EQ(replica.stats().replica_builds, 1u);
}

TEST_F(ReplicaTest, ReplicaMutationIsInvisibleToSiblings) {
  const auto targets = some_targets(3);
  ASSERT_GE(targets.size(), 2u);

  Network a{topo_, params_};
  Network b{topo_, params_};
  const auto from_a = sweep(a, targets);

  // a learned interfaces, advanced its clock, counted probes; the sibling
  // replica over the same block saw none of it.
  EXPECT_GT(a.stats().probes, 0u);
  EXPECT_GT(a.learned_interfaces().size(), 0u);
  EXPECT_EQ(b.stats().probes, 0u);
  EXPECT_EQ(b.learned_interfaces().size(), 0u);
  EXPECT_EQ(b.now_us(), 0u);

  // A pristine sibling reproduces a's first run byte-for-byte, and a's
  // second run (dirty buckets and caches) does not disturb it.
  (void)sweep(a, targets);
  EXPECT_EQ(sweep(b, targets), from_a);
}

TEST_F(ReplicaTest, WarmSnapshotChangesCostNeverReplies) {
  const auto targets = some_targets(4);
  ASSERT_GE(targets.size(), 2u);

  Network cold{topo_, NetworkParams{}};
  const auto cold_replies = sweep(cold, targets);
  EXPECT_GT(cold.stats().route_cache_misses, 0u);

  Network warm{topo_, NetworkParams{}};
  warm.set_shared_routes(warm_snapshot(targets));
  const auto warm_replies = sweep(warm, targets);

  // Byte-identical reply stream, behaviourally equal stats...
  EXPECT_EQ(cold_replies, warm_replies);
  EXPECT_EQ(cold.stats(), warm.stats());
  // ...produced with zero route resolutions: every lookup hit the
  // snapshot (the cost counters are excluded from operator==, and this is
  // exactly why).
  EXPECT_EQ(warm.stats().route_cache_misses, 0u);
  EXPECT_GT(warm.stats().route_cache_hits, 0u);
}

TEST_F(ReplicaTest, WarmSnapshotNeverResurrectsPreChurnRoutes) {
  // Regression for the snapshot-vs-dynamics staleness hazard: the warmed
  // snapshot holds pre-churn (bump-0) paths and cannot be invalidated, so
  // resolve_path must check the ECMP re-convergence state *before*
  // consulting it — a snapshot hit for a re-converged cell would resurrect
  // a withdrawn route. Warm and cold networks replaying the same global
  // re-convergence schedule must stay byte-identical.
  const auto targets = some_targets(8);
  ASSERT_GE(targets.size(), 4u);

  // Vacuity guard: at least one probed path must actually flip under a
  // bump of 1, or this test would pass with resolve_path ordered wrong.
  bool any_flip = false;
  const auto& vantage = topo_.vantages()[0];
  for (const auto& t : targets) {
    const auto key = Network::probe_route_key(topo_, probe_packet(t, 1));
    ASSERT_TRUE(key.has_value());
    const auto base = topo_.path(vantage, t, key->flow_variant, key->next_header);
    const auto bumped =
        topo_.path(vantage, t, key->flow_variant + 1, key->next_header);
    ASSERT_EQ(base.hops.size(), bumped.hops.size());
    for (std::size_t i = 0; i < base.hops.size(); ++i)
      any_flip |= base.hops[i].iface != bumped.hops[i].iface;
  }
  ASSERT_TRUE(any_flip) << "no ECMP-sensitive path among the targets";

  DynamicsSchedule schedule;
  for (const std::uint64_t at : {std::uint64_t{2000}, std::uint64_t{6000}}) {
    DynamicsEvent ev;
    ev.kind = DynamicsKind::kEcmpReconverge;
    ev.at_us = at;  // inside the sweep's first target's TTL loop
    schedule.add(ev);
  }
  NetworkParams np;
  np.dynamics = std::make_shared<const DynamicsSchedule>(std::move(schedule));

  Network cold{topo_, np};
  const auto cold_replies = sweep(cold, targets);

  Network warm{topo_, np};
  warm.set_shared_routes(warm_snapshot(targets));
  const auto warm_replies = sweep(warm, targets);

  EXPECT_EQ(cold_replies, warm_replies);
  EXPECT_EQ(cold.stats(), warm.stats());
  EXPECT_GT(warm.stats().dynamics_events, 0u);
  // The snapshot served the pre-churn probes, then was bypassed: the warm
  // network really resolved fresh routes after the re-convergence.
  EXPECT_GT(warm.stats().route_cache_hits, 0u);
  EXPECT_GT(warm.stats().route_cache_misses, 0u);
}

TEST_F(ReplicaTest, SnapshotIsImmutableConfigurationAcrossReset) {
  const auto targets = some_targets(2);
  ASSERT_FALSE(targets.empty());
  net_.set_shared_routes(warm_snapshot(targets));

  // reset() wipes dynamic state only — the snapshot attachment (like the
  // Topology and params) survives, so arena replicas that reset() between
  // work units stay warm: the second sweep resolves nothing either.
  (void)sweep(net_, targets);
  net_.reset();
  EXPECT_EQ(net_.stats().probes, 0u);
  (void)sweep(net_, targets);
  EXPECT_GT(net_.stats().route_cache_hits, 0u);
  EXPECT_EQ(net_.stats().route_cache_misses, 0u);

  // Detaching is explicit: the next sweep resolves its routes itself.
  net_.set_shared_routes(nullptr);
  net_.reset();
  (void)sweep(net_, targets);
  EXPECT_GT(net_.stats().route_cache_misses, 0u);
}

TEST_F(ReplicaTest, ProbeRouteKeyMatchesResolvePathUsage) {
  const auto targets = some_targets(2);
  ASSERT_FALSE(targets.empty());
  const auto pkt = probe_packet(targets[0], 1);
  const auto key = Network::probe_route_key(topo_, pkt);
  ASSERT_TRUE(key.has_value());
  EXPECT_EQ(key->key.cell, targets[0].hi());
  EXPECT_EQ(key->dst, targets[0]);
  EXPECT_EQ(key->vantage_index, 0u);
  EXPECT_EQ(key->next_header, static_cast<std::uint8_t>(Proto::kIcmp6));
  EXPECT_LT(key->flow_variant, kEcmpVariantPeriod);

  // A warmed snapshot built from this key satisfies the probe: attach it
  // to a cache-disabled network (private cache off isolates the snapshot
  // path) and the probe must resolve with a hit and no miss.
  auto cache = std::make_shared<RouteCache>();
  (void)cache->insert(
      key->key, topo_.path(topo_.vantages()[key->vantage_index], key->dst,
                           key->flow_variant, key->next_header));
  NetworkParams p;
  p.route_cache_entries = 0;
  Network net{topo_, p};
  net.set_shared_routes(std::move(cache));
  (void)net.inject_view(pkt);
  EXPECT_EQ(net.stats().route_cache_hits, 1u);
  EXPECT_EQ(net.stats().route_cache_misses, 0u);

  // Malformed bytes and unknown vantages recover nothing.
  EXPECT_FALSE(Network::probe_route_key(topo_, Packet{0x60, 0x00}).has_value());
  auto stranger = pkt;
  stranger[8] ^= 0xff;  // corrupt the source address: no such vantage
  EXPECT_FALSE(Network::probe_route_key(topo_, stranger).has_value());
}

}  // namespace
}  // namespace beholder6::simnet
