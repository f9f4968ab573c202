// EpochBarrier stress under the ParallelCampaignRunner: heterogeneous
// Doubletree shards — different windows (so epoch lengths), rates, TTL ranges
// and target counts, including a shard with fewer targets than the split
// factor (the split clamps) and a one-target shard — run as the split
// families of one run, so their members park and merge on their
// SnapshotStopSets concurrently across the worker pool. These tests pin
// the protocol's edges: the thread count never changes a result (stats,
// merged stream, sink logs, final stop sets), heterogeneous families
// sharing the pool stay isolated from each other (each shard equals its
// solo run), and the all-exhausted final merge leaves every family's
// discoveries in its stop set.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <tuple>
#include <vector>

#include "campaign/parallel.hpp"
#include "prober/doubletree.hpp"
#include "support/conservation.hpp"

namespace beholder6::campaign {
namespace {

struct ShardShape {
  std::uint64_t id = 0;  // picks the vantage, instance and target slice
  std::size_t n_targets = 0;
  std::size_t window = 0;  // one epoch per window batch; 0 = derive from pps
  double pps = 2000;
  std::uint8_t start_ttl = 5;
  std::uint8_t max_ttl = 8;
};

/// The heterogeneous stress population: epochs of 1, 2, 3 and 5 traces
/// (explicit windows) and pps-derived windows, a 3-target shard (which
/// split factor 5 clamps) and a 1-target shard.
std::vector<ShardShape> stress_shapes() {
  return {
      {.id = 11, .n_targets = 18, .window = 2, .pps = 2500},
      {.id = 12, .n_targets = 24, .window = 1, .pps = 4000, .start_ttl = 4,
       .max_ttl = 7},
      {.id = 13, .n_targets = 10, .window = 5, .pps = 1500},
      {.id = 14, .n_targets = 3, .window = 1, .pps = 2000},
      {.id = 15, .n_targets = 20, .window = 3, .pps = 3000, .start_ttl = 6,
       .max_ttl = 9},
      {.id = 16, .n_targets = 1, .pps = 2000},
  };
}

using SinkLog = std::vector<std::tuple<Ipv6Addr, std::uint8_t, std::uint32_t>>;

/// Everything one run produces: the merged result, each shard's sink log
/// and each shard's final stop set (sorted, so sets compare by value).
struct StressRun {
  ParallelResult result;
  std::vector<SinkLog> logs;
  std::vector<std::vector<Ipv6Addr>> stop_sets;
};

class BarrierStressTest : public ::testing::Test {
 protected:
  BarrierStressTest() : topo_(simnet::TopologyParams{}) {}

  std::vector<Ipv6Addr> targets(std::size_t n, std::size_t skip) {
    std::vector<Ipv6Addr> out;
    for (const auto& as : topo_.ases()) {
      for (const auto& s : topo_.enumerate_subnets(as, 6)) {
        if (skip > 0) {
          --skip;
          continue;
        }
        out.push_back(s.base() | Ipv6Addr::from_halves(0, 0x1234));
      }
      if (out.size() >= n) break;
    }
    out.resize(std::min(out.size(), n));
    return out;
  }

  /// Run `shapes` as the shards of one run at `split` and `threads`. Each
  /// shard gets a private stop set for its family's merges to grow (a
  /// shared one would be grown by concurrently merging families).
  StressRun run(const std::vector<ShardShape>& shapes, std::uint64_t split,
                unsigned threads) {
    std::vector<std::vector<Ipv6Addr>> target_lists;
    std::vector<prober::StopSet> stop_sets(shapes.size());
    std::vector<std::unique_ptr<prober::DoubletreeSource>> sources;
    StressRun out;
    out.logs.resize(shapes.size());
    target_lists.reserve(shapes.size());
    std::vector<Shard> shards;
    for (std::size_t i = 0; i < shapes.size(); ++i) {
      const ShardShape& shape = shapes[i];
      target_lists.push_back(
          targets(shape.n_targets, 5 * static_cast<std::size_t>(shape.id % 67)));
      prober::DoubletreeConfig cfg;
      cfg.src = topo_.vantages()[shape.id % topo_.vantages().size()].src;
      cfg.pps = shape.pps;
      cfg.window = shape.window;
      cfg.max_ttl = shape.max_ttl;
      cfg.start_ttl = shape.start_ttl;
      cfg.instance = static_cast<std::uint8_t>(1 + shape.id % 200);
      sources.push_back(std::make_unique<prober::DoubletreeSource>(
          cfg, target_lists.back(), stop_sets[i]));
      shards.push_back({sources.back().get(), cfg.endpoint(), cfg.pacing(),
                        [&log = out.logs[i]](const wire::DecodedReply& r) {
                          log.emplace_back(r.responder, r.probe.ttl, r.rtt_us);
                        }});
    }
    const ParallelCampaignRunner runner{topo_, simnet::NetworkParams{}, threads};
    out.result = runner.run(shards, {.split_factor = split});
    test_support::expect_parallel_conserved(out.result, true);
    for (const auto& set : stop_sets) {
      out.stop_sets.emplace_back(set.begin(), set.end());
      std::ranges::sort(out.stop_sets.back());
    }
    return out;
  }

  static void expect_identical(const StressRun& a, const StressRun& b) {
    EXPECT_EQ(a.result.per_shard, b.result.per_shard);
    EXPECT_EQ(a.result.per_shard_net, b.result.per_shard_net);
    EXPECT_EQ(a.result.probe_stats, b.result.probe_stats);
    EXPECT_EQ(a.result.net_stats, b.result.net_stats);
    EXPECT_EQ(a.result.elapsed_virtual_us, b.result.elapsed_virtual_us);
    ASSERT_EQ(a.result.replies.size(), b.result.replies.size());
    for (std::size_t i = 0; i < a.result.replies.size(); ++i) {
      const auto& x = a.result.replies[i];
      const auto& y = b.result.replies[i];
      ASSERT_EQ(x.virtual_us, y.virtual_us) << "reply " << i;
      ASSERT_EQ(x.shard, y.shard) << "reply " << i;
      ASSERT_EQ(x.subshard, y.subshard) << "reply " << i;
      ASSERT_EQ(x.reply, y.reply) << "reply " << i;
    }
    EXPECT_EQ(a.logs, b.logs);
    EXPECT_EQ(a.stop_sets, b.stop_sets);
  }

  simnet::Topology topo_;
};

TEST_F(BarrierStressTest, ThreadCountNeverChangesHeterogeneousFamilies) {
  // Families of every shape park and merge concurrently at 2 and 8
  // workers; the result must equal the one-worker run bit for bit.
  for (const std::uint64_t split : {2u, 5u}) {
    const auto one = run(stress_shapes(), split, 1);
    EXPECT_GT(one.result.replies.size(), 0u) << "split " << split;
    for (const unsigned threads : {2u, 8u}) {
      SCOPED_TRACE(::testing::Message()
                   << "split " << split << ", " << threads << " threads");
      expect_identical(one, run(stress_shapes(), split, threads));
    }
  }
}

TEST_F(BarrierStressTest, FamiliesSharingThePoolMatchSoloFamilies) {
  // Barrier parking must stay a family-local affair: a shard whose family
  // shares the pool with five others produces the same stats and sink log
  // as the same shard run alone.
  const auto shapes = stress_shapes();
  for (const std::uint64_t split : {2u, 5u}) {
    const auto mixed = run(shapes, split, 8);
    for (std::size_t i = 0; i < shapes.size(); ++i) {
      SCOPED_TRACE(::testing::Message()
                   << "split " << split << ", shard " << shapes[i].id);
      const auto solo = run({shapes[i]}, split, 8);
      EXPECT_EQ(mixed.result.per_shard[i], solo.result.per_shard[0]);
      EXPECT_EQ(mixed.result.per_shard_net[i], solo.result.per_shard_net[0]);
      EXPECT_EQ(mixed.logs[i], solo.logs[0]);
      EXPECT_EQ(mixed.stop_sets[i], solo.stop_sets[0]);
    }
  }
}

TEST_F(BarrierStressTest, FinalMergeFillsEveryFamilyStopSet) {
  // The all-exhausted final merge leaves each family's discovered
  // interfaces in its stop set — the clamped and one-target families
  // included.
  for (const std::uint64_t split : {2u, 5u}) {
    const auto r = run(stress_shapes(), split, 2);
    ASSERT_EQ(r.stop_sets.size(), stress_shapes().size());
    for (std::size_t i = 0; i < r.stop_sets.size(); ++i)
      EXPECT_GT(r.stop_sets[i].size(), 0u)
          << "split " << split << ", shard " << i << " stop set is empty";
  }
}

}  // namespace
}  // namespace beholder6::campaign
