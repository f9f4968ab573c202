// Determinism suite for campaigns with an active DynamicsSchedule: churn
// rides NetworkParams' shared immutable block, so every replica replays the
// identical event stream against its own virtual clock — making the
// schedule part of the campaign spec, exactly like split_factor. The gates
// here are the parallel backend's existing bit-identical contracts, re-run
// with mid-campaign churn live: 1/2/8 worker threads at a fixed split
// factor (yarrp6 and epoch-barrier Doubletree), parallel ≡ serial replica
// runs, a split(1) Doubletree child ≡ the legacy serial source
// byte-for-byte, and warmed-route-snapshot sharing never changing a result
// (the snapshot must not resurrect pre-churn paths).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <tuple>
#include <vector>

#include "campaign/parallel.hpp"
#include "campaign/runner.hpp"
#include "prober/doubletree.hpp"
#include "prober/yarrp6.hpp"
#include "simnet/dynamics.hpp"
#include "support/conservation.hpp"

namespace beholder6::campaign {
namespace {

class DynamicsDeterminismTest : public ::testing::Test {
 protected:
  DynamicsDeterminismTest() : topo_(simnet::TopologyParams{}) {}

  std::vector<Ipv6Addr> targets(std::size_t n) {
    std::vector<Ipv6Addr> out;
    for (const auto& as : topo_.ases()) {
      for (const auto& s : topo_.enumerate_subnets(as, 6))
        out.push_back(s.base() | Ipv6Addr::from_halves(0, 0x1234));
      if (out.size() >= n) break;
    }
    out.resize(std::min(out.size(), n));
    return out;
  }

  /// NetworkParams carrying a full generated churn schedule (link
  /// failures, scoped and global ECMP re-convergences, rate and loss
  /// swaps) placed inside the given virtual horizon.
  simnet::NetworkParams churn_params(const std::vector<Ipv6Addr>& t,
                                     std::uint64_t horizon_us,
                                     std::uint64_t seed = 11) {
    simnet::ChurnParams cp;
    cp.seed = seed;
    cp.horizon_us = horizon_us;
    simnet::NetworkParams np;
    np.dynamics = std::make_shared<const simnet::DynamicsSchedule>(
        simnet::make_churn_schedule(
            topo_, topo_.vantages()[0],
            std::span<const Ipv6Addr>(t.data(), t.size()), cp));
    return np;
  }

  struct ShardSet {
    std::vector<std::unique_ptr<prober::Yarrp6Source>> sources;
    std::vector<Shard> shards;
  };
  ShardSet make_shards(const std::vector<Ipv6Addr>& t, std::uint64_t k) {
    ShardSet set;
    for (std::uint64_t i = 0; i < k; ++i) {
      prober::Yarrp6Config cfg;
      cfg.src = topo_.vantages()[i % topo_.vantages().size()].src;
      cfg.pps = 3000;
      cfg.max_ttl = 10;
      cfg.fill_mode = true;
      cfg.shard = i;
      cfg.shard_count = k;
      set.sources.push_back(std::make_unique<prober::Yarrp6Source>(cfg, t));
      set.shards.push_back({set.sources.back().get(), cfg.endpoint(),
                            cfg.pacing(), {}});
    }
    return set;
  }

  prober::DoubletreeConfig dt_cfg() {
    prober::DoubletreeConfig cfg;
    cfg.src = topo_.vantages()[0].src;
    cfg.pps = 2000;
    cfg.max_ttl = 10;
    cfg.start_ttl = 6;
    cfg.window = 4;
    return cfg;
  }

  using SinkLog = std::vector<std::tuple<Ipv6Addr, std::uint8_t, std::uint32_t>>;
  static ResponseSink log_into(SinkLog& log) {
    return [&log](const wire::DecodedReply& r) {
      log.emplace_back(r.responder, r.probe.ttl, r.rtt_us);
    };
  }

  static void expect_identical(const ParallelResult& a, const ParallelResult& b) {
    EXPECT_EQ(a.per_shard, b.per_shard);
    EXPECT_EQ(a.per_shard_net, b.per_shard_net);
    EXPECT_EQ(a.probe_stats, b.probe_stats);
    EXPECT_EQ(a.net_stats, b.net_stats);
    EXPECT_EQ(a.elapsed_virtual_us, b.elapsed_virtual_us);
    ASSERT_EQ(a.replies.size(), b.replies.size());
    for (std::size_t i = 0; i < a.replies.size(); ++i) {
      const auto& x = a.replies[i];
      const auto& y = b.replies[i];
      ASSERT_EQ(x.virtual_us, y.virtual_us) << "reply " << i;
      ASSERT_EQ(x.shard, y.shard) << "reply " << i;
      ASSERT_EQ(x.subshard, y.subshard) << "reply " << i;
      ASSERT_EQ(x.reply.responder, y.reply.responder) << "reply " << i;
      ASSERT_EQ(x.reply.type, y.reply.type) << "reply " << i;
      ASSERT_EQ(x.reply.code, y.reply.code) << "reply " << i;
      ASSERT_EQ(x.reply.probe.target, y.reply.probe.target) << "reply " << i;
      ASSERT_EQ(x.reply.probe.ttl, y.reply.probe.ttl) << "reply " << i;
      ASSERT_EQ(x.reply.rtt_us, y.reply.rtt_us) << "reply " << i;
    }
  }

  simnet::Topology topo_;
};

// The headline gate: yarrp6 shards under churn are bit-identical across
// 1/2/8 worker threads at a fixed split factor — and the churn really
// happened (events fired, link events invalidated cached routes, and the
// reply behaviour differs from a static network's).
TEST_F(DynamicsDeterminismTest, ThreadCountInvariantWithActiveSchedule) {
  const auto t = targets(50);
  const auto params = churn_params(t, 15000);
  std::vector<ParallelResult> results;
  for (const unsigned threads : {1u, 2u, 8u}) {
    auto set = make_shards(t, 5);
    const ParallelCampaignRunner runner{topo_, params, threads};
    results.push_back(runner.run(set.shards, {.split_factor = 2}));
  }
  ASSERT_EQ(results.size(), 3u);
  EXPECT_GT(results[0].probe_stats.probes_sent, 0u);
  EXPECT_GT(results[0].replies.size(), 0u);
  EXPECT_GT(results[0].net_stats.dynamics_events, 0u);
  EXPECT_GT(results[0].net_stats.route_invalidations, 0u);
  test_support::expect_parallel_conserved(results[0], true);
  expect_identical(results[0], results[1]);
  expect_identical(results[0], results[2]);

  // The schedule is not a no-op: a static network answers differently.
  auto static_set = make_shards(t, 5);
  const ParallelCampaignRunner static_runner{topo_, simnet::NetworkParams{}, 8};
  const auto static_run = static_runner.run(static_set.shards, {.split_factor = 2});
  EXPECT_FALSE(static_run.net_stats == results[0].net_stats)
      << "churn must change behaviour, not just counters";
}

// Doubletree with epochs crossing the barrier mid-run, under churn: the
// family's snapshot/merge protocol and the schedule replay compose into a
// still-bit-identical result at every thread count.
TEST_F(DynamicsDeterminismTest, DoubletreeEpochsUnderChurnAreThreadInvariant) {
  const auto t = targets(60);
  const auto params = churn_params(t, 20000);
  std::vector<ParallelResult> results;
  std::vector<SinkLog> logs;
  for (const unsigned threads : {1u, 2u, 8u}) {
    auto cfg = dt_cfg();
    cfg.window = 3;  // 15 targets per child: five epochs, barriers really cross
    prober::StopSet stop_set;
    prober::DoubletreeSource source{cfg, t, stop_set};
    SinkLog log;
    const std::vector<Shard> shards{
        {&source, cfg.endpoint(), cfg.pacing(), log_into(log)}};
    const ParallelCampaignRunner runner{topo_, params, threads};
    results.push_back(runner.run(shards, {.split_factor = 4}));
    logs.push_back(std::move(log));
  }
  ASSERT_EQ(results.size(), 3u);
  EXPECT_GT(results[0].replies.size(), 0u);
  EXPECT_GT(results[0].net_stats.dynamics_events, 0u);
  EXPECT_GT(logs[0].size(), 0u);
  test_support::expect_parallel_conserved(results[0], true);
  expect_identical(results[0], results[1]);
  expect_identical(results[0], results[2]);
  EXPECT_EQ(logs[0], logs[1]);
  EXPECT_EQ(logs[0], logs[2]);
}

// A parallel run under churn equals running every shard serially on a
// replica: work units replay the schedule identically whichever worker
// runs them and however the units are interleaved.
TEST_F(DynamicsDeterminismTest, ParallelEqualsSerialReplicaRunsUnderChurn) {
  const auto t = targets(45);
  const auto params = churn_params(t, 15000);
  auto parallel_set = make_shards(t, 4);
  const ParallelCampaignRunner runner{topo_, params, 8};
  const auto parallel = runner.run(parallel_set.shards);
  EXPECT_GT(parallel.net_stats.dynamics_events, 0u);

  auto serial_set = make_shards(t, 4);
  const auto shared = std::make_shared<const simnet::NetworkParams>(params);
  for (std::size_t i = 0; i < serial_set.shards.size(); ++i) {
    simnet::Network net{topo_, shared};
    const auto& shard = serial_set.shards[i];
    const auto stats = CampaignRunner::run_one(net, *shard.source,
                                               shard.endpoint, shard.pacing);
    EXPECT_EQ(stats, parallel.per_shard[i]) << "shard " << i;
    EXPECT_EQ(net.stats(), parallel.per_shard_net[i]) << "shard " << i;
  }
}

// The serial fixpoint survives churn: a split(1) Doubletree child under a
// schedule reproduces the legacy serial source byte-for-byte.
TEST_F(DynamicsDeterminismTest, SplitOneEqualsLegacySerialUnderChurn) {
  const auto t = targets(25);
  const auto params = churn_params(t, 15000);
  const auto cfg = dt_cfg();

  SinkLog legacy_log;
  simnet::Network legacy_net{topo_, params};
  prober::StopSet legacy_stop;
  prober::DoubletreeSource legacy{cfg, t, legacy_stop};
  const auto legacy_stats = CampaignRunner::run_one(
      legacy_net, legacy, cfg.endpoint(), cfg.pacing(), log_into(legacy_log));

  SinkLog child_log;
  simnet::Network child_net{topo_, params};
  prober::StopSet child_stop;
  const prober::DoubletreeSource parent{cfg, t, child_stop};
  auto children = parent.split(1);
  ASSERT_EQ(children.size(), 1u);
  const auto child_stats = CampaignRunner::run_one(
      child_net, *children[0], cfg.endpoint(), cfg.pacing(), log_into(child_log));

  EXPECT_EQ(legacy_stats, child_stats);
  EXPECT_EQ(legacy_net.stats(), child_net.stats());
  ASSERT_EQ(legacy_log, child_log);
  EXPECT_GT(legacy_log.size(), 0u);
  EXPECT_GT(legacy_net.stats().dynamics_events, 0u);
}

// The PR 8 snapshot tier under churn: warmed route-snapshot sharing is
// still a pure performance tier when the schedule re-converges ECMP mid-
// run — resolve_path must skip the (pre-churn) snapshot for bumped cells
// rather than resurrect withdrawn paths. Warm ≡ cold, bit for bit.
TEST_F(DynamicsDeterminismTest, SnapshotSharingNeverChangesResultsUnderChurn) {
  const auto t = targets(50);
  const auto params = churn_params(t, 15000);
  auto warm_set = make_shards(t, 4);
  auto cold_set = make_shards(t, 4);
  auto cold_params = params;
  cold_params.route_cache_entries = 0;  // the cold reference: no cache tier
  const ParallelCampaignRunner runner{topo_, params, 8};
  const ParallelCampaignRunner cold_runner{topo_, cold_params, 8};
  const auto warm = runner.run(warm_set.shards, {.split_factor = 2});
  const auto cold = cold_runner.run(cold_set.shards, {.split_factor = 2});
  EXPECT_GT(warm.probe_stats.probes_sent, 0u);
  EXPECT_GT(warm.warmed_routes, 0u);
  EXPECT_GT(warm.net_stats.dynamics_events, 0u);
  expect_identical(warm, cold);
}

}  // namespace
}  // namespace beholder6::campaign
