// Determinism suite for epoch-snapshotted Doubletree (SnapshotStopSet +
// DoubletreeSource::split + the parallel backend's EpochBarrier protocol):
// split(k) must return k children that jointly cover the target list;
// results at a fixed split_factor must be bit-identical across 1/2/8
// worker threads (with epochs actually crossing barriers); a split-1
// child must reproduce the serial source byte-for-byte (including at
// window 1, the degenerate epoch of one trace); an epoch must be exactly
// one window batch; SnapshotStopSet must keep sibling deltas invisible
// until the canonical merge, which grows the caller's StopSet in place;
// the paper's rate-limiting pathology must survive per epoch; and the old
// unsplittable→whole-shard fallback must be gone (subshards really run,
// and the slowest work unit really shrinks).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <utility>
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
// including at window 1, the degenerate epoch of one trace.
TEST_F(DoubletreeSplitTest, SplitOneChildIsByteIdenticalToLegacySerial) {
  const auto t = targets(25);
  for (const std::size_t window : {std::size_t{4}, std::size_t{1}}) {
    auto cfg = dt_cfg();
    cfg.window = window;

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

    EXPECT_EQ(legacy_stats, child_stats) << "window " << window;
    EXPECT_EQ(legacy_net.stats(), child_net.stats());
    ASSERT_EQ(legacy_log, child_log) << "window " << window;
    EXPECT_GT(legacy_log.size(), 0u);
  }
}

// The headline contract: a split Doubletree shard at a fixed split_factor
// is bit-identical across 1/2/8 worker threads — merged stats, the global
// reply stream, and post-hoc sink delivery — with epochs really crossing
// barriers mid-run (small windows, several batches per child).
TEST_F(DoubletreeSplitTest, FixedSplitFactorIsThreadCountInvariant) {
  const auto t = targets(60);
  for (const std::size_t window : {std::size_t{4}, std::size_t{3}}) {
    std::vector<ParallelResult> results;
    std::vector<SinkLog> logs;
    for (const unsigned threads : {1u, 2u, 8u}) {
      auto cfg = dt_cfg();
      cfg.window = window;
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

// An epoch is one window batch: a split child over n targets at window w,
// driven by hand with every probe unanswered, pauses after each batch that
// leaves work behind — ⌈n/w⌉ − 1 times — and never after the last.
TEST_F(DoubletreeSplitTest, AnEpochIsOneWindowBatch) {
  const auto t = targets(10);
  ASSERT_EQ(t.size(), 10u);
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {10, 3}, {9, 3}, {7, 1}, {4, 4}, {1, 4}};
  for (const auto& [n, w] : shapes) {
    auto cfg = dt_cfg();
    cfg.window = w;
    prober::StopSet stop_set;
    const std::span<const Ipv6Addr> slice{t.data(), n};
    const prober::DoubletreeSource parent{cfg, slice, stop_set};
    auto children = parent.split(1);
    ASSERT_EQ(children.size(), 1u);
    ProbeSource& child = *children[0];
    child.begin(0);
    std::size_t pauses = 0;
    for (Poll poll = child.next(0); poll.status != Poll::Status::kExhausted;
         poll = child.next(0)) {
      if (poll.status == Poll::Status::kProbe)
        child.on_probe_done(poll.probe, false, 0);
      if (child.epoch_paused()) {
        ++pauses;
        child.epoch_barrier()->merge_epoch();
        child.epoch_resume();
      }
    }
    EXPECT_FALSE(child.epoch_paused()) << "n " << n << ", w " << w;
    EXPECT_EQ(pauses, (n + w - 1) / w - 1) << "n " << n << ", w " << w;
  }
}

// SnapshotStopSet unit semantics: the caller's set is the frozen epoch set,
// sibling deltas stay invisible until the barrier merge, insert answers
// per-child visibility, and every merge (not only the last) folds the
// deltas into the caller's set.
TEST_F(DoubletreeSplitTest, SnapshotStopSetMergesIntoTheCallersSet) {
  const Ipv6Addr a = test_support::addr("2001:db8::a");
  const Ipv6Addr b = test_support::addr("2001:db8::b");
  const Ipv6Addr c = test_support::addr("2001:db8::c");
  const Ipv6Addr d = test_support::addr("2001:db8::d");
  prober::StopSet stop_set;
  stop_set.insert(a);
  prober::SnapshotStopSet snap{stop_set, 2};

  // Epoch 0: what the caller's set held before the split is visible to
  // everyone, writes are private. insert answers whether the address was
  // already visible to that child.
  EXPECT_TRUE(snap.insert(0, a)) << "pre-split membership already known";
  EXPECT_TRUE(snap.insert(1, a)) << "pre-split membership already known";
  EXPECT_FALSE(snap.insert(0, b)) << "fresh discovery for child 0";
  EXPECT_TRUE(snap.insert(0, b)) << "now known to child 0 itself";
  EXPECT_FALSE(snap.insert(1, c)) << "fresh discovery for child 1";
  EXPECT_FALSE(snap.insert(0, c)) << "invisible to the sibling this epoch";
  EXPECT_EQ(stop_set.size(), 1u) << "no write reaches the caller mid-epoch";

  // Barrier: the deltas fold into the caller's set, and the next epoch
  // sees the union.
  snap.merge_epoch();
  EXPECT_EQ(stop_set.size(), 3u);
  EXPECT_TRUE(stop_set.contains(b));
  EXPECT_TRUE(stop_set.contains(c));
  EXPECT_TRUE(snap.insert(1, b)) << "a sibling's discovery, merged";

  // Epoch 1 works the same way.
  EXPECT_FALSE(snap.insert(1, d));
  EXPECT_FALSE(snap.insert(0, d)) << "invisible to the sibling this epoch";
  EXPECT_FALSE(stop_set.contains(d));
  snap.merge_epoch();
  EXPECT_TRUE(stop_set.contains(d));
  EXPECT_EQ(stop_set.size(), 4u);
}

// A parallel split campaign leaves its aggregate stop set in the StopSet
// the parent was constructed over (the cross-campaign contract the serial
// source keeps): every responder the family heard from, since each reply
// enters its child's delta and the merge after the last exhaustion folds
// the final deltas in.
TEST_F(DoubletreeSplitTest, SplitRunLeavesEveryResponderInTheParentStopSet) {
  const auto t = targets(40);
  const auto cfg = dt_cfg();
  prober::StopSet stop_set;
  prober::DoubletreeSource source{cfg, t, stop_set};
  const std::vector<Shard> shards{{&source, cfg.endpoint(), cfg.pacing(), {}}};
  const ParallelCampaignRunner runner{topo_, simnet::NetworkParams{}, 2};
  const auto result = runner.run(shards, {.split_factor = 4});
  EXPECT_GT(result.probe_stats.replies, 0u);
  prober::StopSet responders;
  for (const auto& r : result.replies) responders.insert(r.reply.responder);
  EXPECT_EQ(stop_set, responders);
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
