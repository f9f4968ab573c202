// Determinism suite for epoch-snapshotted Doubletree (SnapshotStopSet +
// DoubletreeSource::split + the parallel backend's EpochBarrier protocol):
// split(k) must return k children that jointly cover the target list;
// results at a fixed split_factor must be bit-identical across 1/2/8
// worker threads (with epochs actually crossing barriers); a split-1
// child must reproduce the legacy serial source byte-for-byte (including
// at epoch length 1, the degenerate fixpoint); SnapshotStopSet must keep
// sibling deltas invisible until the canonical merge and publish into the
// legacy StopSet once every child exhausts; the paper's rate-limiting
// pathology must survive per epoch; and the old unsplittable→whole-shard
// fallback must be gone (subshards really run, and the slowest work unit
// really shrinks).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "campaign/parallel.hpp"
#include "campaign/runner.hpp"
#include "prober/doubletree.hpp"
#include "support/literals.hpp"

namespace beholder6::campaign {
namespace {

class DoubletreeSplitTest : public ::testing::Test {
 protected:
  DoubletreeSplitTest() : topo_(simnet::TopologyParams{}) {}

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

  /// A config whose window is small enough that epochs really close and
  /// merge mid-run (window 4 ⇒ one epoch per 4 completed traces by
  /// default), at a rate that exercises the rate limiters.
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
      ASSERT_EQ(x.reply.probe.target, y.reply.probe.target) << "reply " << i;
      ASSERT_EQ(x.reply.probe.ttl, y.reply.probe.ttl) << "reply " << i;
      ASSERT_EQ(x.reply.rtt_us, y.reply.rtt_us) << "reply " << i;
    }
  }

  simnet::Topology topo_;
};

// split(k) returns k children: contiguous balanced slices, one shared
// epoch barrier, trace counts summing to the parent's. The legacy serial
// source is not epoch-coupled, and children never re-split.
TEST_F(DoubletreeSplitTest, SplitReturnsKChildrenSharingOneBarrier) {
  const auto t = targets(30);
  const auto cfg = dt_cfg();
  prober::StopSet stop_set;
  const prober::DoubletreeSource whole{cfg, t, stop_set};
  EXPECT_EQ(whole.epoch_barrier(), nullptr);

  const auto children = whole.split(4);
  ASSERT_EQ(children.size(), 4u);
  EpochBarrier* barrier = children[0]->epoch_barrier();
  ASSERT_NE(barrier, nullptr);
  ProbeStats acc;
  for (const auto& child : children) {
    EXPECT_EQ(child->epoch_barrier(), barrier) << "one barrier per family";
    EXPECT_TRUE(child->split(2).empty()) << "children are one-shot units";
    ProbeStats s;
    child->finish(s);  // traces only; children are pristine
    acc += s;
  }
  EXPECT_EQ(acc.traces, t.size()) << "slice trace counts sum to the parent's";

  // Far-over-decomposition clamps to one target per child; an empty list
  // is unsplittable.
  const prober::DoubletreeSource tiny{cfg, std::span<const Ipv6Addr>{t.data(), 2},
                                      stop_set};
  EXPECT_EQ(tiny.split(8).size(), 2u);
  const prober::DoubletreeSource empty{cfg, std::span<const Ipv6Addr>{}, stop_set};
  EXPECT_TRUE(empty.split(8).empty());
}

// The serial fixpoint: a split(1) child must reproduce the legacy serial
// source byte-for-byte — same replies, same stats, same network counters —
// including with the degenerate epoch length of one trace.
TEST_F(DoubletreeSplitTest, SplitOneChildIsByteIdenticalToLegacySerial) {
  const auto t = targets(25);
  for (const std::size_t epoch_traces : {std::size_t{0}, std::size_t{1}}) {
    auto cfg = dt_cfg();
    cfg.epoch_traces = epoch_traces;

    SinkLog legacy_log;
    simnet::Network legacy_net{topo_, simnet::NetworkParams{}};
    prober::StopSet legacy_stop;
    prober::DoubletreeSource legacy{cfg, t, legacy_stop};
    const auto legacy_stats = CampaignRunner::run_one(
        legacy_net, legacy, cfg.endpoint(), cfg.pacing(), log_into(legacy_log));

    SinkLog child_log;
    simnet::Network child_net{topo_, simnet::NetworkParams{}};
    prober::StopSet child_stop;
    const prober::DoubletreeSource parent{cfg, t, child_stop};
    auto children = parent.split(1);
    ASSERT_EQ(children.size(), 1u);
    const auto child_stats = CampaignRunner::run_one(
        child_net, *children[0], cfg.endpoint(), cfg.pacing(), log_into(child_log));

    EXPECT_EQ(legacy_stats, child_stats) << "epoch_traces " << epoch_traces;
    EXPECT_EQ(legacy_net.stats(), child_net.stats());
    ASSERT_EQ(legacy_log, child_log) << "epoch_traces " << epoch_traces;
    EXPECT_GT(legacy_log.size(), 0u);
  }
}

// The headline contract: a split Doubletree shard at a fixed split_factor
// is bit-identical across 1/2/8 worker threads — merged stats, the global
// reply stream, and post-hoc sink delivery — with epochs really crossing
// barriers mid-run (small window, several batches per child).
TEST_F(DoubletreeSplitTest, FixedSplitFactorIsThreadCountInvariant) {
  const auto t = targets(60);
  for (const std::size_t epoch_traces : {std::size_t{0}, std::size_t{3}}) {
    std::vector<ParallelResult> results;
    std::vector<SinkLog> logs;
    for (const unsigned threads : {1u, 2u, 8u}) {
      auto cfg = dt_cfg();
      cfg.epoch_traces = epoch_traces;
      prober::StopSet stop_set;
      prober::DoubletreeSource source{cfg, t, stop_set};
      SinkLog log;
      const std::vector<Shard> shards{
          {&source, cfg.endpoint(), cfg.pacing(), log_into(log)}};
      const ParallelCampaignRunner runner{topo_, simnet::NetworkParams{}, threads};
      results.push_back(runner.run(shards, {.split_factor = 4}));
      logs.push_back(std::move(log));
    }
    ASSERT_EQ(results.size(), 3u);
    EXPECT_GT(results[0].probe_stats.probes_sent, 0u);
    EXPECT_GT(results[0].replies.size(), 0u);
    EXPECT_GT(logs[0].size(), 0u);
    expect_identical(results[0], results[1]);
    expect_identical(results[0], results[2]);
    EXPECT_EQ(logs[0], logs[1]);
    EXPECT_EQ(logs[0], logs[2]);
  }
}

// SnapshotStopSet unit semantics: sibling deltas stay invisible until the
// barrier merge; insert answers per-child visibility; the union publishes
// into the legacy StopSet only once every child has exhausted.
TEST_F(DoubletreeSplitTest, SnapshotStopSetEpochAndPublishSemantics) {
  const Ipv6Addr a = test_support::addr("2001:db8::a");
  const Ipv6Addr b = test_support::addr("2001:db8::b");
  const Ipv6Addr c = test_support::addr("2001:db8::c");
  prober::StopSet seed{a};
  prober::StopSet out;
  prober::SnapshotStopSet snap{seed, 2, &out};

  // Epoch 0: the seed is visible to everyone, writes are private. insert
  // answers whether the address was already visible to that child.
  EXPECT_TRUE(snap.insert(0, a)) << "seed membership already known";
  EXPECT_TRUE(snap.insert(1, a)) << "seed membership already known";
  EXPECT_FALSE(snap.insert(0, b)) << "fresh discovery for child 0";
  EXPECT_TRUE(snap.insert(0, b)) << "now known to child 0 itself";
  EXPECT_FALSE(snap.insert(1, b)) << "invisible to the sibling this epoch";
  EXPECT_FALSE(snap.insert(0, c)) << "fresh discovery for child 0";

  // Barrier: deltas fold canonically, next epoch sees the union.
  snap.merge_epoch();
  EXPECT_TRUE(snap.insert(1, b)) << "the merged union is visible to all";
  EXPECT_TRUE(snap.insert(1, c)) << "a sibling's discovery, merged";
  EXPECT_TRUE(out.empty()) << "no publish before every child exhausts";

  // Publish once the family is done.
  snap.mark_exhausted(0);
  snap.merge_epoch();
  EXPECT_TRUE(out.empty()) << "child 1 still running";
  snap.mark_exhausted(1);
  snap.merge_epoch();
  EXPECT_EQ(out, (prober::StopSet{a, b, c}));
}

// A parallel split campaign publishes its aggregate stop set back into the
// StopSet the parent was constructed over (the cross-campaign contract the
// legacy prober relies on).
TEST_F(DoubletreeSplitTest, SplitRunPublishesIntoTheParentStopSet) {
  const auto t = targets(40);
  const auto cfg = dt_cfg();
  prober::StopSet stop_set;
  prober::DoubletreeSource source{cfg, t, stop_set};
  const std::vector<Shard> shards{{&source, cfg.endpoint(), cfg.pacing(), {}}};
  const ParallelCampaignRunner runner{topo_, simnet::NetworkParams{}, 2};
  const auto result = runner.run(shards, {.split_factor = 4});
  EXPECT_GT(result.probe_stats.replies, 0u);
  EXPECT_FALSE(stop_set.empty()) << "final barrier must publish the union";
}

// The paper's rate-limiting pathology survives the epoch construction: a
// rate-limited hop answers nothing, enters no delta and no frozen set, so
// backward probing is never curtailed by silence — every trace still pays
// its own near-vantage probes within its epoch.
TEST_F(DoubletreeSplitTest, RateLimitPathologyPreservedPerEpoch) {
  std::vector<Ipv6Addr> targets;
  for (const auto& as : topo_.ases()) {
    if (as.type != simnet::AsType::kEyeballIsp) continue;
    for (const auto& s : topo_.enumerate_subnets(as, 200))
      targets.push_back(s.base() | Ipv6Addr::from_halves(0, 0x1234567812345678ULL));
  }
  targets.resize(std::min<std::size_t>(targets.size(), 300));
  prober::DoubletreeConfig cfg;
  cfg.src = topo_.vantages()[0].src;
  cfg.pps = 2000;  // heavy rate limiting
  cfg.max_ttl = 16;
  cfg.start_ttl = 6;

  prober::StopSet stop_set;
  prober::DoubletreeSource source{cfg, targets, stop_set};
  const std::vector<Shard> shards{{&source, cfg.endpoint(), cfg.pacing(), {}}};
  const ParallelCampaignRunner runner{topo_, simnet::NetworkParams{}, 2};
  const auto result = runner.run(shards, {.split_factor = 4});
  EXPECT_GT(result.probe_stats.probes_sent, targets.size() * 6u)
      << "backward probing should not be curtailed by silent hops";
}

// The fallback is gone: a split Doubletree shard really runs as k
// subshards (the reply stream carries subshard ids past 0) and the
// slowest work unit's virtual time drops below the unsplit run's.
TEST_F(DoubletreeSplitTest, SplitShardReallyRunsAsSubshards) {
  const auto t = targets(60);
  const auto cfg = dt_cfg();
  auto run_with = [&](std::uint64_t split_factor) {
    prober::StopSet stop_set;
    prober::DoubletreeSource source{cfg, t, stop_set};
    const std::vector<Shard> shards{{&source, cfg.endpoint(), cfg.pacing(), {}}};
    const ParallelCampaignRunner runner{topo_, simnet::NetworkParams{}, 2};
    return runner.run(shards, {.split_factor = split_factor});
  };
  const auto unsplit = run_with(1);
  const auto split = run_with(4);

  std::uint32_t max_subshard = 0;
  for (const auto& r : split.replies)
    max_subshard = std::max(max_subshard, r.subshard);
  EXPECT_EQ(max_subshard, 3u) << "all four subshards must deliver replies";
  EXPECT_LT(split.elapsed_virtual_us, unsplit.elapsed_virtual_us)
      << "the slowest work unit must shrink when the shard splits";
  EXPECT_EQ(split.per_shard[0].traces, t.size());
}

}  // namespace
}  // namespace beholder6::campaign
