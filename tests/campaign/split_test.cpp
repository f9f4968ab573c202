// Determinism suite for sub-shard work distribution (ProbeSource::split +
// ParallelRunOptions::split_factor): yarrp6's split(k) of a full walk must
// *be* the classic shard/shard_count partition (and compose with parent
// sharding), results at a fixed split_factor must be bit-identical across
// 1/2/8 worker threads (including post-hoc sink delivery for split shards),
// unsplittable sources must fall back to whole-shard runs, sequential must
// partition its target range exactly, empty/one-probe subshards must be
// harmless, and a split shard's throwing sink must fail run() cleanly.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <vector>

#include "campaign/parallel.hpp"
#include "prober/doubletree.hpp"
#include "prober/sequential.hpp"
#include "prober/yarrp6.hpp"

namespace beholder6::campaign {
namespace {

class SplitCampaignTest : public ::testing::Test {
 protected:
  SplitCampaignTest() : topo_(simnet::TopologyParams{}) {}

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

  prober::Yarrp6Config yarrp_cfg(bool fill = true) {
    prober::Yarrp6Config cfg;
    cfg.src = topo_.vantages()[0].src;
    cfg.pps = 3000;
    cfg.max_ttl = 10;
    cfg.fill_mode = fill;
    return cfg;
  }

  /// Drain a feedback-free source by direct polling; returns its exact
  /// (target, ttl) emission sequence.
  static std::vector<std::pair<Ipv6Addr, std::uint8_t>> drain(
      ProbeSource& source) {
    std::vector<std::pair<Ipv6Addr, std::uint8_t>> out;
    source.begin(0);
    for (std::uint64_t now = 0;; now += 100) {
      const auto poll = source.next(now);
      if (poll.status == Poll::Status::kExhausted) break;
      if (poll.status == Poll::Status::kProbe)
        out.emplace_back(poll.probe.target, poll.probe.ttl);
    }
    return out;
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
      ASSERT_EQ(x.reply.probe.target, y.reply.probe.target) << "reply " << i;
      ASSERT_EQ(x.reply.probe.ttl, y.reply.probe.ttl) << "reply " << i;
      ASSERT_EQ(x.reply.rtt_us, y.reply.rtt_us) << "reply " << i;
    }
  }

  simnet::Topology topo_;
};

// split(k) of a full walk must emit, child by child, exactly what the
// existing shard/shard_count partition emits — the same permutation math.
TEST_F(SplitCampaignTest, Yarrp6SplitOfFullWalkIsTheManualShardPartition) {
  const auto t = targets(37);
  auto cfg = yarrp_cfg(/*fill=*/false);
  cfg.max_ttl = 7;
  const prober::Yarrp6Source whole{cfg, t};
  const auto children = whole.split(5);
  ASSERT_EQ(children.size(), 5u);
  for (std::size_t i = 0; i < children.size(); ++i) {
    auto manual_cfg = cfg;
    manual_cfg.shard = i;
    manual_cfg.shard_count = 5;
    prober::Yarrp6Source manual{manual_cfg, t};
    EXPECT_EQ(drain(*children[i]), drain(manual)) << "subshard " << i;
  }
}

// Splitting a shard that is itself one cell of a shard/shard_count
// partition must stay inside the parent's cell: child i of k starts at
// shard + i·count and steps by count·k.
TEST_F(SplitCampaignTest, Yarrp6SplitComposesWithParentSharding) {
  const auto t = targets(23);
  auto cfg = yarrp_cfg(/*fill=*/false);
  cfg.max_ttl = 5;
  cfg.shard = 1;
  cfg.shard_count = 3;
  const prober::Yarrp6Source parent{cfg, t};
  const auto children = parent.split(4);
  ASSERT_EQ(children.size(), 4u);

  // The children's union must be exactly the parent's emission sequence as
  // a set, and each child must match the stride-multiplied manual config.
  prober::Yarrp6Source parent_again{cfg, t};
  auto parent_seq = drain(parent_again);
  std::vector<std::pair<Ipv6Addr, std::uint8_t>> union_seq;
  for (std::size_t i = 0; i < children.size(); ++i) {
    auto manual_cfg = cfg;
    manual_cfg.shard = cfg.shard + i * cfg.shard_count;
    manual_cfg.shard_count = cfg.shard_count * 4;
    prober::Yarrp6Source manual{manual_cfg, t};
    auto child_seq = drain(*children[i]);
    EXPECT_EQ(child_seq, drain(manual)) << "subshard " << i;
    union_seq.insert(union_seq.end(), child_seq.begin(), child_seq.end());
  }
  std::sort(parent_seq.begin(), parent_seq.end());
  std::sort(union_seq.begin(), union_seq.end());
  EXPECT_EQ(union_seq, parent_seq);
}

// The headline contract: at a fixed split_factor, the thread count must
// never change results — merged stats, per-shard stats, the global reply
// stream, and the post-hoc sink delivery order.
TEST_F(SplitCampaignTest, FixedSplitFactorIsThreadCountInvariant) {
  const auto t = targets(60);
  using SinkLog = std::vector<std::pair<Ipv6Addr, std::uint8_t>>;
  std::vector<ParallelResult> results;
  std::vector<SinkLog> logs;
  for (const unsigned threads : {1u, 2u, 8u}) {
    // One giant yarrp6 shard (the split target) plus a sequential shard.
    prober::Yarrp6Config ycfg = yarrp_cfg();
    prober::Yarrp6Source yarrp{ycfg, t};
    prober::SequentialConfig scfg;
    scfg.src = topo_.vantages()[1].src;
    scfg.pps = 2000;
    scfg.max_ttl = 8;
    prober::SequentialSource seq{scfg, t};
    SinkLog log;
    const std::vector<Shard> shards{
        {&yarrp, ycfg.endpoint(), ycfg.pacing(),
         [&log](const wire::DecodedReply& r) {
           log.emplace_back(r.responder, r.probe.ttl);
         }},
        {&seq, scfg.endpoint(), scfg.pacing(), {}},
    };
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

// Splitting one giant shard must reproduce the manual k-shard campaign:
// same probes, fills and replies, with the subshard index standing in for
// the manual shard id — only the trace count is reported parent-level.
TEST_F(SplitCampaignTest, SplitRunMatchesManualShardRun) {
  const auto t = targets(50);
  const auto cfg = yarrp_cfg();
  constexpr std::uint64_t kSplit = 4;

  prober::Yarrp6Source giant{cfg, t};
  const std::vector<Shard> one{{&giant, cfg.endpoint(), cfg.pacing(), {}}};
  const ParallelCampaignRunner runner{topo_, simnet::NetworkParams{}, 2};
  const auto split_run = runner.run(one, {.split_factor = kSplit});

  std::vector<std::unique_ptr<prober::Yarrp6Source>> sources;
  std::vector<Shard> manual;
  for (std::uint64_t i = 0; i < kSplit; ++i) {
    auto mcfg = cfg;
    mcfg.shard = i;
    mcfg.shard_count = kSplit;
    sources.push_back(std::make_unique<prober::Yarrp6Source>(mcfg, t));
    manual.push_back({sources.back().get(), mcfg.endpoint(), mcfg.pacing(), {}});
  }
  const auto manual_run = runner.run(manual);

  ASSERT_EQ(split_run.per_shard.size(), 1u);
  ProbeStats manual_sum;
  for (const auto& s : manual_run.per_shard) manual_sum += s;
  EXPECT_EQ(split_run.per_shard[0].probes_sent, manual_sum.probes_sent);
  EXPECT_EQ(split_run.per_shard[0].replies, manual_sum.replies);
  EXPECT_EQ(split_run.per_shard[0].fills, manual_sum.fills);
  EXPECT_EQ(split_run.per_shard[0].elapsed_virtual_us,
            manual_sum.elapsed_virtual_us);
  // Manual shards each report the full target list; the split fold must
  // report it exactly once.
  EXPECT_EQ(split_run.per_shard[0].traces, t.size());
  EXPECT_EQ(manual_sum.traces, t.size() * kSplit);
  EXPECT_EQ(split_run.net_stats, manual_run.net_stats);
  EXPECT_EQ(split_run.elapsed_virtual_us, manual_run.elapsed_virtual_us);

  ASSERT_EQ(split_run.replies.size(), manual_run.replies.size());
  for (std::size_t i = 0; i < split_run.replies.size(); ++i) {
    const auto& s = split_run.replies[i];
    const auto& m = manual_run.replies[i];
    ASSERT_EQ(s.virtual_us, m.virtual_us) << "reply " << i;
    EXPECT_EQ(s.shard, 0u) << "reply " << i;
    ASSERT_EQ(s.subshard, m.shard) << "reply " << i;
    ASSERT_EQ(s.reply.responder, m.reply.responder) << "reply " << i;
    ASSERT_EQ(s.reply.probe.target, m.reply.probe.target) << "reply " << i;
    ASSERT_EQ(s.reply.probe.ttl, m.reply.probe.ttl) << "reply " << i;
  }
}

// An unsplittable source must run whole: split_factor changes nothing.
// (Doubletree — the historical example here — now splits as an
// epoch-snapshotted family, covered by doubletree_split_test.cpp; this
// uses a stub that declines to split, the contract's default.)
TEST_F(SplitCampaignTest, UnsplittableSourceFallsBackToWholeShard) {
  // Forwards a sequential order but reports unsplittable, like any source
  // whose feedback coupling has no epoch-snapshotted form.
  class UnsplittableSource final : public ProbeSource {
   public:
    UnsplittableSource(const prober::SequentialConfig& cfg,
                       std::span<const Ipv6Addr> targets)
        : inner_(cfg, targets) {}
    void begin(std::uint64_t now_us) override { inner_.begin(now_us); }
    Poll next(std::uint64_t now_us) override { return inner_.next(now_us); }
    void on_reply(const Probe& probe, const wire::DecodedReply& reply,
                  std::uint64_t now_us) override {
      inner_.on_reply(probe, reply, now_us);
    }
    void on_probe_done(const Probe& probe, bool answered,
                       std::uint64_t now_us) override {
      inner_.on_probe_done(probe, answered, now_us);
    }
    void finish(ProbeStats& stats) const override { inner_.finish(stats); }
    // split() stays the base-class default: empty, i.e. unsplittable.

   private:
    prober::SequentialSource inner_;
  };

  const auto t = targets(30);
  prober::SequentialConfig cfg;
  cfg.src = topo_.vantages()[0].src;
  cfg.pps = 2000;
  cfg.max_ttl = 10;

  auto run_with = [&](std::uint64_t split_factor) {
    UnsplittableSource source{cfg, t};
    const std::vector<Shard> shards{
        {&source, cfg.endpoint(), cfg.pacing(), {}}};
    const ParallelCampaignRunner runner{topo_, simnet::NetworkParams{}, 4};
    return runner.run(shards, {.split_factor = split_factor});
  };
  const auto whole = run_with(1);
  const auto asked_to_split = run_with(8);
  EXPECT_GT(whole.probe_stats.probes_sent, 0u);
  expect_identical(whole, asked_to_split);
  for (const auto& r : asked_to_split.replies) EXPECT_EQ(r.subshard, 0u);
}

// Sequential splits by contiguous target ranges: balanced slices whose
// traces sum to the whole list, thread-count invariant.
TEST_F(SplitCampaignTest, SequentialSplitPartitionsTheTargetRange) {
  const auto t = targets(10);
  prober::SequentialConfig cfg;
  cfg.src = topo_.vantages()[0].src;
  cfg.pps = 2000;
  cfg.max_ttl = 8;

  const prober::SequentialSource whole{cfg, t};
  EXPECT_TRUE(whole.split(1).empty());
  const auto children = whole.split(3);
  ASSERT_EQ(children.size(), 3u);

  std::vector<ParallelResult> results;
  for (const unsigned threads : {1u, 2u, 8u}) {
    prober::SequentialSource source{cfg, t};
    const std::vector<Shard> shards{{&source, cfg.endpoint(), cfg.pacing(), {}}};
    const ParallelCampaignRunner runner{topo_, simnet::NetworkParams{}, threads};
    results.push_back(runner.run(shards, {.split_factor = 3}));
  }
  expect_identical(results[0], results[1]);
  expect_identical(results[0], results[2]);
  // Each child reports its own slice; slices partition the list exactly.
  EXPECT_EQ(results[0].per_shard[0].traces, t.size());
  EXPECT_GT(results[0].probe_stats.probes_sent, 0u);

  // A single target cannot split: the source reports unsplittable.
  const prober::SequentialSource tiny{cfg, std::span<const Ipv6Addr>{t.data(), 1}};
  EXPECT_TRUE(tiny.split(8).empty());
}

// Over-decomposition far past the work size must degrade gracefully: the
// split clamps to the walk's position count (no born-exhausted children),
// one-probe subshards emit their probe, and the fold still reports the
// exact totals.
TEST_F(SplitCampaignTest, EmptyAndOneProbeSubshards) {
  const auto t = targets(2);
  ASSERT_EQ(t.size(), 2u);
  auto cfg = yarrp_cfg(/*fill=*/false);
  cfg.max_ttl = 1;  // domain = 2 cells, far fewer than the split factor

  prober::Yarrp6Source source{cfg, t};
  EXPECT_EQ(source.split(8).size(), 2u);  // clamped to one cell per child
  EXPECT_TRUE(prober::Yarrp6Source(cfg, std::span<const Ipv6Addr>{t.data(), 1})
                  .split(8)
                  .empty());  // a single cell is unsplittable
  const std::vector<Shard> shards{{&source, cfg.endpoint(), cfg.pacing(), {}}};
  const ParallelCampaignRunner runner{topo_, simnet::NetworkParams{}, 8};
  const auto result = runner.run(shards, {.split_factor = 8});
  EXPECT_EQ(result.probe_stats.probes_sent, 2u);
  EXPECT_EQ(result.per_shard[0].traces, 2u);

  // An empty target list splits into uniformly empty children and still
  // runs (to zero probes) without incident.
  prober::Yarrp6Source empty{cfg, std::span<const Ipv6Addr>{}};
  const std::vector<Shard> none{{&empty, cfg.endpoint(), cfg.pacing(), {}}};
  const auto empty_result = runner.run(none, {.split_factor = 4});
  EXPECT_EQ(empty_result.probe_stats.probes_sent, 0u);
  EXPECT_TRUE(empty_result.replies.empty());
}

// With collect_replies off, a split shard's sink must still see every
// reply, post-hoc, in an order the thread count cannot change.
TEST_F(SplitCampaignTest, SplitSinkOnlyCampaignIsDeterministic) {
  const auto t = targets(40);
  const auto cfg = yarrp_cfg();
  using SinkLog = std::vector<std::pair<Ipv6Addr, std::uint8_t>>;
  std::vector<SinkLog> logs;
  std::vector<ProbeStats> stats;
  for (const unsigned threads : {1u, 2u, 8u}) {
    prober::Yarrp6Source source{cfg, t};
    SinkLog log;
    const std::vector<Shard> shards{
        {&source, cfg.endpoint(), cfg.pacing(),
         [&log](const wire::DecodedReply& r) {
           log.emplace_back(r.responder, r.probe.ttl);
         }}};
    const ParallelCampaignRunner runner{topo_, simnet::NetworkParams{}, threads};
    const auto result =
        runner.run(shards, {.collect_replies = false, .split_factor = 5});
    EXPECT_TRUE(result.replies.empty());
    logs.push_back(std::move(log));
    stats.push_back(result.per_shard[0]);
  }
  EXPECT_GT(logs[0].size(), 0u);
  EXPECT_EQ(logs[0], logs[1]);
  EXPECT_EQ(logs[0], logs[2]);
  EXPECT_EQ(stats[0], stats[1]);
  EXPECT_EQ(stats[0], stats[2]);
}

// A split shard's sink runs on the caller thread after the pool has
// joined, so an exception it throws must propagate out of run() — never
// unwind past a joinable std::thread (which would std::terminate).
TEST_F(SplitCampaignTest, ThrowingSplitShardSinkFailsTheRun) {
  const auto t = targets(40);
  const auto cfg = yarrp_cfg();
  for (const unsigned threads : {1u, 2u, 8u}) {
    prober::Yarrp6Source source{cfg, t};
    std::size_t delivered = 0;
    const std::vector<Shard> shards{
        {&source, cfg.endpoint(), cfg.pacing(),
         [&delivered](const wire::DecodedReply&) {
           if (++delivered == 50) throw std::runtime_error{"sink failed"};
         }}};
    const ParallelCampaignRunner runner{topo_, simnet::NetworkParams{}, threads};
    EXPECT_THROW((void)runner.run(shards, {.split_factor = 4}),
                 std::runtime_error)
        << threads << " threads";
    EXPECT_EQ(delivered, 50u) << threads << " threads";
  }
}

}  // namespace
}  // namespace beholder6::campaign
