// Determinism suite for the zero-allocation fast path: the route cache (on,
// off, or thrashing a tiny capacity) must never change a single reply byte
// or campaign counter — only the hit/miss performance counters — across
// yarrp6, sequential and Doubletree campaigns, run → reset → run, replica()
// shards, and 1/2/8-thread parallel campaigns. Also pins the contract the
// cache key is built on: Topology::path is a pure function of (vantage,
// target /64 cell, flow_hash % kEcmpVariantPeriod, proto).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "campaign/parallel.hpp"
#include "campaign/runner.hpp"
#include "prober/doubletree.hpp"
#include "prober/sequential.hpp"
#include "prober/yarrp6.hpp"
#include "simnet/network.hpp"
#include "simnet/topology.hpp"
#include "wire/probe.hpp"

namespace beholder6::simnet {
namespace {

/// Zero the route-cache performance counters, which are the *only* stats a
/// cache configuration may change.
NetworkStats scrub_cache_counters(NetworkStats s) {
  s.route_cache_hits = 0;
  s.route_cache_misses = 0;
  return s;
}

class RouteCacheTest : public ::testing::Test {
 protected:
  RouteCacheTest() : topo_(TopologyParams{}) {}

  /// A target mix that exercises every terminal path: live /64s (gateway
  /// and random-IID addresses — delivered, dead-host, firewalled, no-route)
  /// plus some unrouted space.
  std::vector<Ipv6Addr> targets(std::size_t n) const {
    std::vector<Ipv6Addr> out;
    for (const auto& as : topo_.ases()) {
      for (const auto& s : topo_.enumerate_subnets(as, 4)) {
        out.push_back(s.base() | Ipv6Addr::from_halves(0, 1));
        out.push_back(s.base() | Ipv6Addr::from_halves(0, splitmix64(out.size())));
      }
      if (out.size() >= n) break;
    }
    for (std::size_t i = 0; out.size() < n; ++i)
      out.push_back(Ipv6Addr::from_halves(0x3000ULL << 48 | i, 0x99));
    out.resize(n);
    return out;
  }

  [[nodiscard]] NetworkParams params_with_cache(std::size_t entries) const {
    NetworkParams p;
    p.route_cache_entries = entries;
    return p;
  }

  /// One campaign's full observable output: every reply byte in emission
  /// order plus the final stats.
  struct Run {
    std::vector<Packet> reply_stream;
    NetworkStats net_stats;
    campaign::ProbeStats probe_stats;
  };

  template <typename MakeSource>
  Run run_campaign(const NetworkParams& params, MakeSource make_source,
                   const campaign::PacingPolicy& pacing) const {
    Network net{topo_, params};
    Run run;
    net.set_probe_observer(
        [&](const Packet&, std::span<const Packet> replies) {
          run.reply_stream.insert(run.reply_stream.end(), replies.begin(),
                                  replies.end());
        });
    auto source = make_source();
    run.probe_stats = campaign::CampaignRunner::run_one(
        net, *source, source_endpoint_, pacing);
    run.net_stats = net.stats();
    return run;
  }

  void expect_equal_modulo_cache_counters(const Run& a, const Run& b) {
    EXPECT_EQ(a.reply_stream, b.reply_stream) << "reply bytes must not move";
    EXPECT_EQ(scrub_cache_counters(a.net_stats), scrub_cache_counters(b.net_stats));
    EXPECT_EQ(a.probe_stats, b.probe_stats);
  }

  Topology topo_;
  campaign::Endpoint source_endpoint_;
};

TEST_F(RouteCacheTest, Yarrp6CacheOnOffByteIdentical) {
  const auto t = targets(120);
  prober::Yarrp6Config cfg;
  cfg.src = topo_.vantages()[0].src;
  cfg.max_ttl = 12;
  cfg.fill_mode = true;
  source_endpoint_ = cfg.endpoint();
  auto make = [&] { return std::make_unique<prober::Yarrp6Source>(cfg, t); };

  const auto on = run_campaign(params_with_cache(1 << 17), make, cfg.pacing());
  const auto off = run_campaign(params_with_cache(0), make, cfg.pacing());
  expect_equal_modulo_cache_counters(on, off);

  ASSERT_GT(on.reply_stream.size(), 0u);
  EXPECT_GT(on.net_stats.route_cache_hits, on.net_stats.route_cache_misses)
      << "a 12-TTL trace recomputes one path per TTL; most lookups must hit";
  EXPECT_EQ(off.net_stats.route_cache_hits, 0u);
  EXPECT_EQ(off.net_stats.route_cache_misses, 0u);
}

TEST_F(RouteCacheTest, SequentialBurstCacheOnOffByteIdentical) {
  // Burst pacing at the default 1 us in-burst gap: lockstep rounds with
  // one send instant per probe.
  const auto t = targets(60);
  prober::SequentialConfig cfg;
  cfg.src = topo_.vantages()[1].src;
  cfg.max_ttl = 10;
  cfg.window = 8;
  source_endpoint_ = cfg.endpoint();
  auto make = [&] { return std::make_unique<prober::SequentialSource>(cfg, t); };

  const auto on = run_campaign(params_with_cache(1 << 17), make, cfg.pacing());
  const auto off = run_campaign(params_with_cache(0), make, cfg.pacing());
  expect_equal_modulo_cache_counters(on, off);
  ASSERT_GT(on.reply_stream.size(), 0u);
  EXPECT_GT(on.net_stats.route_cache_hits, 0u);
}

TEST_F(RouteCacheTest, DoubletreeCacheOnOffByteIdentical) {
  const auto t = targets(60);
  prober::DoubletreeConfig cfg;
  cfg.src = topo_.vantages()[2].src;
  cfg.max_ttl = 10;
  cfg.window = 8;
  source_endpoint_ = cfg.endpoint();
  // Each run gets a fresh stop set (it is feedback state, part of the run).
  std::vector<std::unique_ptr<prober::StopSet>> stop_sets;
  auto make = [&] {
    stop_sets.push_back(std::make_unique<prober::StopSet>());
    return std::make_unique<prober::DoubletreeSource>(cfg, t, *stop_sets.back());
  };

  const auto on = run_campaign(params_with_cache(1 << 17), make, cfg.pacing());
  const auto off = run_campaign(params_with_cache(0), make, cfg.pacing());
  expect_equal_modulo_cache_counters(on, off);
  ASSERT_GT(on.reply_stream.size(), 0u);
}

TEST_F(RouteCacheTest, TinyCacheEvictsDeterministically) {
  // A 8-entry cache thrashes on this workload; eviction must be invisible
  // in the reply stream and reproducible run-over-run.
  const auto t = targets(80);
  prober::Yarrp6Config cfg;
  cfg.src = topo_.vantages()[0].src;
  cfg.max_ttl = 8;
  source_endpoint_ = cfg.endpoint();
  auto make = [&] { return std::make_unique<prober::Yarrp6Source>(cfg, t); };

  const auto tiny1 = run_campaign(params_with_cache(8), make, cfg.pacing());
  const auto tiny2 = run_campaign(params_with_cache(8), make, cfg.pacing());
  const auto off = run_campaign(params_with_cache(0), make, cfg.pacing());
  EXPECT_EQ(tiny1.reply_stream, tiny2.reply_stream);
  EXPECT_EQ(tiny1.net_stats, tiny2.net_stats);  // counters included
  expect_equal_modulo_cache_counters(tiny1, off);
  EXPECT_GT(tiny1.net_stats.route_cache_misses, 8u) << "capacity must thrash";
}

TEST_F(RouteCacheTest, RunResetRunByteIdentical) {
  const auto t = targets(60);
  prober::Yarrp6Config cfg;
  cfg.src = topo_.vantages()[0].src;
  cfg.max_ttl = 10;
  source_endpoint_ = cfg.endpoint();

  Network net{topo_};
  std::vector<std::vector<Packet>> streams;
  net.set_probe_observer([&](const Packet&, std::span<const Packet> replies) {
    streams.back().insert(streams.back().end(), replies.begin(), replies.end());
  });
  std::vector<NetworkStats> stats;
  for (int pass = 0; pass < 2; ++pass) {
    streams.emplace_back();
    prober::Yarrp6Source source{cfg, t};
    campaign::CampaignRunner::run_one(net, source, cfg.endpoint(), cfg.pacing());
    stats.push_back(net.stats());
    net.reset();
  }
  ASSERT_GT(streams[0].size(), 0u);
  EXPECT_EQ(streams[0], streams[1]);
  EXPECT_EQ(stats[0], stats[1]) << "reset() must also clear the route cache";
}

TEST_F(RouteCacheTest, ReplicaStartsWithPristineCache) {
  const auto t = targets(40);
  prober::Yarrp6Config cfg;
  cfg.src = topo_.vantages()[0].src;
  cfg.max_ttl = 8;
  source_endpoint_ = cfg.endpoint();

  Network warm{topo_};
  {
    prober::Yarrp6Source source{cfg, t};
    campaign::CampaignRunner::run_one(warm, source, cfg.endpoint(), cfg.pacing());
  }
  ASSERT_GT(warm.stats().route_cache_hits, 0u);

  // The replica shares nothing: same campaign on it equals the same
  // campaign on a brand-new Network, misses and all.
  auto replica = warm.replica();
  Network fresh{topo_};
  for (Network* net : {&replica, &fresh}) {
    prober::Yarrp6Source source{cfg, t};
    campaign::CampaignRunner::run_one(*net, source, cfg.endpoint(), cfg.pacing());
  }
  EXPECT_EQ(replica.stats(), fresh.stats());
  EXPECT_EQ(warm.stats(), fresh.stats()) << "warm cache must not change results";
}

TEST_F(RouteCacheTest, ParallelShardsBitIdenticalAcrossThreadsAndCache) {
  const auto t = targets(50);
  auto make_shards = [&](std::vector<std::unique_ptr<prober::Yarrp6Source>>& keep) {
    std::vector<campaign::Shard> shards;
    for (std::uint64_t i = 0; i < 4; ++i) {
      prober::Yarrp6Config cfg;
      cfg.src = topo_.vantages()[i % topo_.vantages().size()].src;
      cfg.max_ttl = 8;
      cfg.shard = i;
      cfg.shard_count = 4;
      keep.push_back(std::make_unique<prober::Yarrp6Source>(cfg, t));
      shards.push_back({keep.back().get(), cfg.endpoint(), cfg.pacing(), {}});
    }
    return shards;
  };

  auto run_with = [&](std::size_t cache_entries, unsigned threads) {
    std::vector<std::unique_ptr<prober::Yarrp6Source>> keep;
    auto shards = make_shards(keep);
    const campaign::ParallelCampaignRunner runner{
        topo_, params_with_cache(cache_entries), threads};
    return runner.run(shards);
  };

  const auto on1 = run_with(1 << 17, 1);
  const auto on2 = run_with(1 << 17, 2);
  const auto on8 = run_with(1 << 17, 8);
  const auto off1 = run_with(0, 1);

  ASSERT_GT(on1.replies.size(), 0u);
  EXPECT_EQ(on1.per_shard, on2.per_shard);
  EXPECT_EQ(on1.per_shard_net, on2.per_shard_net);
  EXPECT_EQ(on1.per_shard, on8.per_shard);
  EXPECT_EQ(on1.per_shard_net, on8.per_shard_net);
  EXPECT_EQ(on1.net_stats, on2.net_stats);
  EXPECT_EQ(on1.net_stats, on8.net_stats);

  // Cache on vs. off: identical campaign results, counters aside.
  EXPECT_EQ(on1.per_shard, off1.per_shard);
  EXPECT_EQ(scrub_cache_counters(on1.net_stats), scrub_cache_counters(off1.net_stats));
  ASSERT_EQ(on1.replies.size(), off1.replies.size());
  for (std::size_t i = 0; i < on1.replies.size(); ++i) {
    EXPECT_EQ(on1.replies[i].virtual_us, off1.replies[i].virtual_us);
    EXPECT_EQ(on1.replies[i].shard, off1.replies[i].shard);
    EXPECT_EQ(on1.replies[i].reply.responder, off1.replies[i].reply.responder);
    EXPECT_EQ(on1.replies[i].reply.probe.target, off1.replies[i].reply.probe.target);
  }
}

TEST_F(RouteCacheTest, PathOracleIsAFunctionOfTheCacheKey) {
  // The cache memoizes on (vantage, target.hi(), flow_hash %
  // kEcmpVariantPeriod, proto); Topology::path must not read anything else.
  const auto t = targets(64);
  const auto& vantage = topo_.vantages()[0];
  for (std::size_t i = 0; i < t.size(); ++i) {
    const auto hash = splitmix64(i * 0x9e37);
    for (const std::uint8_t proto : {58, 17, 6}) {
      const auto base = topo_.path(vantage, t[i], hash, proto);
      // Variant periodicity.
      EXPECT_EQ(base, topo_.path(vantage, t[i], hash % kEcmpVariantPeriod, proto));
      EXPECT_EQ(base, topo_.path(vantage, t[i], hash + kEcmpVariantPeriod, proto));
      // IID-blindness: any address in the same /64 routes identically.
      const auto sibling = Ipv6Addr::from_halves(t[i].hi(), splitmix64(i) | 1);
      EXPECT_EQ(base, topo_.path(vantage, sibling, hash, proto));
    }
  }
}

TEST_F(RouteCacheTest, TerminalUnreachablesSuppressPerFullAddress) {
  // The negative caches key on the full 128-bit address now (they once
  // stored a 64-bit hash, which could wrongly suppress a distinct target's
  // Destination Unreachable on collision). Two dead hosts in one /64: each
  // gets its own single AddressUnreachable, then silence.
  NetworkParams p;
  p.unlimited = true;
  Network net{topo_, p};

  // Find a delivered /64 and two addresses in it with no live host.
  std::optional<Ipv6Addr> dead_a, dead_b;
  for (const auto& as : topo_.ases()) {
    for (const auto& s : topo_.enumerate_subnets(as, 16)) {
      std::vector<Ipv6Addr> dead;
      for (std::uint64_t iid = 0x4000; iid < 0x4040 && dead.size() < 2; ++iid) {
        const auto addr = s.base() | Ipv6Addr::from_halves(0, iid);
        if (!topo_.host_at(addr) &&
            topo_.path(topo_.vantages()[0], addr, 0, 58).end == PathEnd::kDelivered)
          dead.push_back(addr);
      }
      if (dead.size() == 2) {
        dead_a = dead[0];
        dead_b = dead[1];
        break;
      }
    }
    if (dead_a) break;
  }
  ASSERT_TRUE(dead_a && dead_b) << "topology must contain dead addresses";

  auto probe_of = [&](const Ipv6Addr& target) {
    wire::ProbeSpec spec;
    spec.src = topo_.vantages()[0].src;
    spec.target = target;
    spec.ttl = 64;  // past every hop: terminal behaviour
    spec.instance = 1;
    return wire::encode_probe(spec);
  };

  EXPECT_EQ(net.inject_view(probe_of(*dead_a)).size(), 1u) << "first DU answered";
  EXPECT_EQ(net.inject_view(probe_of(*dead_a)).size(), 0u) << "repeat suppressed";
  EXPECT_EQ(net.inject_view(probe_of(*dead_b)).size(), 1u)
      << "a distinct target must not be suppressed by its neighbour";
  EXPECT_EQ(net.inject_view(probe_of(*dead_b)).size(), 0u);
}

}  // namespace
}  // namespace beholder6::simnet
