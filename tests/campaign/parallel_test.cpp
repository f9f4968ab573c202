// Determinism suite for the sharded parallel campaign backend: the thread
// count must never change results (merged stats, per-shard stats, and the
// (virtual time, shard, arrival)-ordered reply stream are bit-identical at
// 1/2/8 workers), a parallel run must equal running the shards serially on
// replicas, and Network::reset() must make run → reset → run byte-identical
// (the cross-campaign state-leak regression). A worker failure — a source
// throwing mid-run, alone or inside an epoch family parked at its barrier —
// must surface from run() at every thread count. The pool claims the
// largest units first, and only a split family whose members share their
// warm targets is warmed into the route snapshot. The post-join merge
// hands each run's drained pages back as it goes: the merged stream must
// still equal a reference merge for runs of every size, a merge-delivered
// sink that throws must leave no mapping behind, and resident memory must
// not grow by the merged stream's size while the merge runs.
#include "campaign/parallel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <thread>
#include <tuple>

#ifdef __linux__
#include <fcntl.h>
#include <unistd.h>
#endif
#ifdef __GLIBC__
#include <malloc.h>
#endif

#include "prober/doubletree.hpp"
#include "netbase/huge_alloc.hpp"
#include "prober/yarrp6.hpp"
#include "support/big_echo.hpp"
#include "support/conservation.hpp"
#include "support/mapped.hpp"
#include "support/throwing_source.hpp"

namespace beholder6::campaign {
namespace {

class ParallelCampaignTest : public ::testing::Test {
 protected:
  ParallelCampaignTest() : topo_(simnet::TopologyParams{}) {}

  std::vector<Ipv6Addr> targets(std::size_t n, std::size_t per_as = 6) {
    std::vector<Ipv6Addr> out;
    for (const auto& as : topo_.ases()) {
      for (const auto& s : topo_.enumerate_subnets(as, per_as))
        out.push_back(s.base() | Ipv6Addr::from_halves(0, 0x1234));
      if (out.size() >= n) break;
    }
    out.resize(std::min(out.size(), n));
    return out;
  }

  /// A k-way yarrp6 partition of the (target × TTL) space, one shard per
  /// cell, plus the sources backing it (kept alive by the caller).
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

TEST_F(ParallelCampaignTest, ThreadCountNeverChangesResults) {
  const auto t = targets(50);
  // Rate-limited network: bucket state must replicate per shard, not leak.
  const simnet::NetworkParams params{};
  std::vector<ParallelResult> results;
  for (const unsigned threads : {1u, 2u, 8u}) {
    auto set = make_shards(t, 5);
    const ParallelCampaignRunner runner{topo_, params, threads};
    results.push_back(runner.run(set.shards));
  }
  ASSERT_EQ(results.size(), 3u);
  EXPECT_GT(results[0].probe_stats.probes_sent, 0u);
  EXPECT_GT(results[0].replies.size(), 0u);
  test_support::expect_parallel_conserved(results[0], true);
  expect_identical(results[0], results[1]);
  expect_identical(results[0], results[2]);
}

TEST_F(ParallelCampaignTest, RouteSnapshotSharingNeverChangesResults) {
  // The warmed shared route snapshot is a pure performance tier: against a
  // cold reference with every cache tier off (route_cache_entries = 0), at
  // any thread count, with or without splitting, the ParallelResult must
  // be bit-identical. Only the cost telemetry may differ — warm runs
  // report warmed routes and one replica build per worker arena.
  const auto t = targets(50);
  auto warm_set = make_shards(t, 4);
  auto cold_set = make_shards(t, 4);
  simnet::NetworkParams cold_params;
  cold_params.route_cache_entries = 0;
  const ParallelCampaignRunner runner{topo_, simnet::NetworkParams{}, 8};
  const ParallelCampaignRunner cold_runner{topo_, cold_params, 8};
  const auto warm = runner.run(warm_set.shards, {.split_factor = 2});
  const auto cold = cold_runner.run(cold_set.shards, {.split_factor = 2});
  EXPECT_GT(warm.probe_stats.probes_sent, 0u);
  expect_identical(warm, cold);
  // The snapshot really was warmed and consulted.
  EXPECT_GT(warm.warmed_routes, 0u);
  EXPECT_EQ(cold.warmed_routes, 0u);
  EXPECT_GT(warm.net_stats.route_cache_hits, cold.net_stats.route_cache_hits);
}

/// Forwards to a source and records, in `log`, its id when it begins.
class BeginOrderSource final : public ProbeSource {
 public:
  BeginOrderSource(ProbeSource& inner, std::size_t id,
                   std::vector<std::size_t>& log)
      : inner_(inner), id_(id), log_(log) {}

  void begin(std::uint64_t now_us) override {
    log_.push_back(id_);
    inner_.begin(now_us);
  }
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
  [[nodiscard]] std::span<const Ipv6Addr> route_warm_targets() const override {
    return inner_.route_warm_targets();
  }

 private:
  ProbeSource& inner_;
  std::size_t id_;
  std::vector<std::size_t>& log_;
};

TEST_F(ParallelCampaignTest, LargestUnitsAreClaimedFirst) {
  // One worker claims units in the pool's initial order: descending
  // estimated work (warm-target count), ties to the lower shard index.
  const auto t = targets(12);
  const std::vector<std::size_t> sizes{3, 7, 5, 7, 1, 12};
  prober::Yarrp6Config cfg;
  cfg.src = topo_.vantages()[0].src;
  cfg.max_ttl = 4;
  std::vector<std::unique_ptr<prober::Yarrp6Source>> inner;
  std::vector<std::unique_ptr<BeginOrderSource>> sources;
  std::vector<std::size_t> begun;
  std::vector<Shard> shards;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    inner.push_back(std::make_unique<prober::Yarrp6Source>(
        cfg, std::span<const Ipv6Addr>{t}.first(sizes[i])));
    sources.push_back(std::make_unique<BeginOrderSource>(*inner.back(), i, begun));
    shards.push_back({sources.back().get(), cfg.endpoint(), cfg.pacing(), {}});
  }
  const ParallelCampaignRunner runner{topo_, simnet::NetworkParams{}, 1};
  const auto result = runner.run(shards);
  EXPECT_GT(result.probe_stats.probes_sent, 0u);
  EXPECT_EQ(begun, (std::vector<std::size_t>{5, 1, 3, 2, 0, 4}));
}

TEST_F(ParallelCampaignTest, UnsplitShardsResolveRoutesOnDemand) {
  // No two replicas read the same routes, so nothing is warmed; results
  // still equal the cold reference (route_cache_entries = 0).
  const auto t = targets(50);
  simnet::NetworkParams cold_params;
  cold_params.route_cache_entries = 0;
  auto cold_set = make_shards(t, 4);
  const auto cold =
      ParallelCampaignRunner{topo_, cold_params, 8}.run(cold_set.shards);
  for (const unsigned threads : {1u, 2u, 8u}) {
    auto set = make_shards(t, 4);
    const ParallelCampaignRunner runner{topo_, simnet::NetworkParams{}, threads};
    const auto warm = runner.run(set.shards);
    EXPECT_EQ(warm.warmed_routes, 0u) << threads << " threads";
    EXPECT_EQ(warm.warmup_seconds, 0.0) << threads << " threads";
    EXPECT_GT(warm.net_stats.route_cache_hits, 0u) << threads << " threads";
    expect_identical(warm, cold);
  }
}

TEST_F(ParallelCampaignTest, DoubletreeFamilyResolvesRoutesOnDemand) {
  // Doubletree children partition their parent's targets, so no route is
  // shared between replicas and nothing is warmed.
  const auto t = targets(40);
  prober::DoubletreeConfig cfg;
  cfg.src = topo_.vantages()[1].src;
  cfg.pps = 2000;
  cfg.max_ttl = 10;
  cfg.start_ttl = 6;
  cfg.window = 4;
  const auto run = [&](const simnet::NetworkParams& params, unsigned threads) {
    prober::StopSet stop_set;
    prober::DoubletreeSource source{cfg, t, stop_set};
    const std::vector<Shard> shards{
        {&source, cfg.endpoint(), cfg.pacing(), {}}};
    return ParallelCampaignRunner{topo_, params, threads}.run(
        shards, {.split_factor = 4});
  };
  simnet::NetworkParams cold_params;
  cold_params.route_cache_entries = 0;
  const auto cold = run(cold_params, 8);
  EXPECT_GT(cold.probe_stats.probes_sent, 0u);
  for (const unsigned threads : {1u, 2u, 8u}) {
    const auto warm = run(simnet::NetworkParams{}, threads);
    EXPECT_EQ(warm.warmed_routes, 0u) << threads << " threads";
    EXPECT_EQ(warm.warmup_seconds, 0.0) << threads << " threads";
    expect_identical(warm, cold);
  }
}

TEST_F(ParallelCampaignTest, MergedReplyStreamIsTotallyOrdered) {
  const auto t = targets(40);
  auto set = make_shards(t, 4);
  const ParallelCampaignRunner runner{topo_, simnet::NetworkParams{}, 2};
  const auto result = runner.run(set.shards);
  ASSERT_GT(result.replies.size(), 1u);
  for (std::size_t i = 1; i < result.replies.size(); ++i) {
    const auto& prev = result.replies[i - 1];
    const auto& cur = result.replies[i];
    EXPECT_TRUE(prev.virtual_us < cur.virtual_us ||
                (prev.virtual_us == cur.virtual_us && prev.shard <= cur.shard))
        << "merge key must be non-decreasing at " << i;
  }
}

TEST_F(ParallelCampaignTest, ParallelEqualsSerialReplicaRuns) {
  const auto t = targets(45);
  auto parallel_set = make_shards(t, 4);
  const ParallelCampaignRunner runner{topo_, simnet::NetworkParams{}, 8};
  const auto parallel = runner.run(parallel_set.shards);

  auto serial_set = make_shards(t, 4);
  const auto params = std::make_shared<const simnet::NetworkParams>();
  for (std::size_t i = 0; i < serial_set.shards.size(); ++i) {
    simnet::Network net{topo_, params};
    const auto& shard = serial_set.shards[i];
    const auto stats = CampaignRunner::run_one(net, *shard.source, shard.endpoint,
                                               shard.pacing);
    EXPECT_EQ(stats, parallel.per_shard[i]) << "shard " << i;
    EXPECT_EQ(net.stats(), parallel.per_shard_net[i]) << "shard " << i;
  }
  EXPECT_EQ(parallel.net_stats.probes, parallel.probe_stats.probes_sent);
}

TEST_F(ParallelCampaignTest, RunResetRunIsByteIdentical) {
  // Cross-campaign determinism on ONE network: a full campaign (including
  // learned-interface echoes, whose fragment streams consume the
  // per-router Identification counters), then reset(), then the same
  // campaign again must reproduce byte-for-byte. Regression for reset()
  // leaving iface_router_ and frag_id_ populated.
  const auto t = targets(30);
  prober::Yarrp6Config cfg;
  cfg.src = topo_.vantages()[0].src;
  cfg.pps = 2000;
  cfg.max_ttl = 12;

  simnet::Network net{topo_, simnet::NetworkParams{}};
  const auto campaign = [&] {
    prober::Yarrp6Source source{cfg, t};
    std::vector<wire::DecodedReply> replies;
    const auto stats = CampaignRunner::run_one(
        net, source, cfg.endpoint(), cfg.pacing(),
        [&](const wire::DecodedReply& r) { replies.push_back(r); });

    // Alias-probing phase: oversized echoes to every learned interface, in
    // deterministic address order, recording raw fragment bytes (these
    // carry the router's Identification counter).
    std::vector<Ipv6Addr> ifaces;
    for (const auto& [iface, rid] : net.learned_interfaces()) ifaces.push_back(iface);
    std::sort(ifaces.begin(), ifaces.end());
    std::vector<simnet::Packet> frags;
    for (const auto& iface : ifaces)
      for (const auto& f :
           net.inject_view(test_support::make_big_echo(cfg.src, iface)))
        frags.push_back(f);
    return std::tuple{stats, replies, frags, net.stats(), net.now_us()};
  };

  const auto first = campaign();
  ASSERT_FALSE(net.learned_interfaces().empty());
  ASSERT_GT(std::get<2>(first).size(), 0u) << "no fragmented echoes elicited";

  net.reset();
  EXPECT_TRUE(net.learned_interfaces().empty())
      << "reset() must forget learned interfaces";
  EXPECT_EQ(net.now_us(), 0u);
  EXPECT_EQ(net.stats(), simnet::NetworkStats{});

  const auto second = campaign();
  EXPECT_EQ(std::get<0>(first), std::get<0>(second));  // ProbeStats
  EXPECT_EQ(std::get<3>(first), std::get<3>(second));  // NetworkStats
  EXPECT_EQ(std::get<4>(first), std::get<4>(second));  // virtual clock
  ASSERT_EQ(std::get<1>(first).size(), std::get<1>(second).size());
  // The fragment byte streams embed the Identification counters: any
  // cross-campaign leak shifts them.
  EXPECT_EQ(std::get<2>(first), std::get<2>(second));
}

TEST_F(ParallelCampaignTest, ThrowingSourceFailsTheRun) {
  // One shard's source throws halfway through while its siblings probe on;
  // run() must rethrow it, with the merged stream collected, at any pool
  // size (1 = inline on the caller, 2 and 8 = real worker threads).
  const auto t = targets(8);
  for (const unsigned threads : {1u, 2u, 8u}) {
    std::vector<std::unique_ptr<test_support::ThrowingSource>> sources;
    std::vector<Shard> shards;
    for (std::size_t i = 0; i < t.size(); ++i) {
      sources.push_back(std::make_unique<test_support::ThrowingSource>(
          t[i], 200, i == 3 ? 100 : 0));
      shards.push_back({sources.back().get(), {topo_.vantages()[0].src},
                        PacingPolicy::uniform(1000), {}});
    }
    const ParallelCampaignRunner runner{topo_, simnet::NetworkParams{}, threads};
    EXPECT_THROW((void)runner.run(shards, {.collect_replies = true}),
                 std::runtime_error)
        << threads << " threads";
  }
}

/// A splittable stub whose children form one epoch family. Each child
/// probes its own target for two epochs of kPerEpoch probes, pausing at
/// the barrier in between. The last child is the thrower: halfway through
/// its first epoch it waits until every sibling has paused at the barrier,
/// then throws from next(). Being last, it is claimed after its siblings,
/// so a single worker has parked them all before it runs, and with more
/// workers the siblings park on threads of their own.
class EpochFamilyWithThrower final : public ProbeSource {
 public:
  explicit EpochFamilyWithThrower(std::vector<Ipv6Addr> targets)
      : targets_(std::move(targets)) {}

  Poll next(std::uint64_t) override { return Poll::exhausted(); }

  [[nodiscard]] std::vector<std::unique_ptr<ProbeSource>> split(
      std::uint64_t k) const override {
    const std::size_t n = std::min<std::size_t>(k, targets_.size());
    auto barrier = std::make_shared<Barrier>();
    std::vector<std::unique_ptr<ProbeSource>> children;
    for (std::size_t j = 0; j < n; ++j)
      children.push_back(
          std::make_unique<Child>(targets_[j], j + 1 == n, n - 1, barrier));
    return children;
  }

 private:
  static constexpr std::uint64_t kPerEpoch = 40;

  struct Barrier final : EpochBarrier {
    void merge_epoch() override {}
    std::atomic<std::size_t> parked{0};  // siblings paused at barrier 1
  };

  class Child final : public ProbeSource {
   public:
    Child(const Ipv6Addr& target, bool thrower, std::size_t siblings,
          std::shared_ptr<Barrier> barrier)
        : target_(target), thrower_(thrower), siblings_(siblings),
          barrier_(std::move(barrier)) {}

    Poll next(std::uint64_t) override {
      if (thrower_ && sent_ == kPerEpoch / 2) {
        while (barrier_->parked.load() < siblings_) std::this_thread::yield();
        throw std::runtime_error{"epoch-family member failed mid-epoch"};
      }
      if (sent_ == kPerEpoch && !closed_first_epoch_) {
        closed_first_epoch_ = true;
        paused_ = true;
        ++barrier_->parked;
        return Poll::round_end();
      }
      if (sent_ == 2 * kPerEpoch) return Poll::exhausted();
      ++sent_;
      return Poll::emit({target_, static_cast<std::uint8_t>(1 + sent_ % 8)});
    }
    [[nodiscard]] EpochBarrier* epoch_barrier() const override {
      return barrier_.get();
    }
    [[nodiscard]] bool epoch_paused() const override { return paused_; }
    void epoch_resume() override { paused_ = false; }

   private:
    Ipv6Addr target_;
    bool thrower_;
    std::size_t siblings_;
    std::shared_ptr<Barrier> barrier_;
    std::uint64_t sent_ = 0;
    bool closed_first_epoch_ = false;
    bool paused_ = false;
  };

  std::vector<Ipv6Addr> targets_;
};

TEST_F(ParallelCampaignTest, ThrowingEpochFamilyMemberFailsTheRun) {
  // The thrower's siblings sit parked at a barrier that can now never
  // complete: run() must still rethrow instead of waiting on it.
  const auto t = targets(4);
  for (const unsigned threads : {1u, 2u, 8u}) {
    EpochFamilyWithThrower family{t};
    const std::vector<Shard> shards{{&family, {topo_.vantages()[0].src},
                                     PacingPolicy::uniform(1000), {}}};
    const ParallelCampaignRunner runner{topo_, simnet::NetworkParams{}, threads};
    EXPECT_THROW((void)runner.run(shards, {.collect_replies = true,
                                           .split_factor = t.size()}),
                 std::runtime_error)
        << threads << " threads";
  }
}

#ifdef __linux__
/// Resident set size from /proc/self/statm, read through one descriptor
/// opened up front, so a sample allocates nothing.
class ResidentMemory {
 public:
  ResidentMemory() : fd_(::open("/proc/self/statm", O_RDONLY)) {}
  ~ResidentMemory() {
    if (fd_ >= 0) ::close(fd_);
  }
  ResidentMemory(const ResidentMemory&) = delete;
  ResidentMemory& operator=(const ResidentMemory&) = delete;

  [[nodiscard]] bool ok() const { return fd_ >= 0; }
  /// Resident bytes now (0 if the read fails).
  [[nodiscard]] std::size_t bytes() const {
    std::array<char, 128> buf{};
    const auto n = ::pread(fd_, buf.data(), buf.size() - 1, 0);
    if (n <= 0) return 0;
    char* rest = nullptr;
    (void)std::strtoull(buf.data(), &rest, 10);  // total program size
    return std::strtoull(rest, nullptr, 10) * page_;
  }

 private:
  int fd_;
  std::size_t page_ = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
};
#endif

/// A yarrp6 shard over `t` (which must outlive it) whose sink the runner
/// must deliver from the post-join merge once it splits: the runs the
/// memory tests drain.
struct MergeFamily {
  MergeFamily(const std::vector<Ipv6Addr>& t, const Ipv6Addr& src) {
    prober::Yarrp6Config cfg;
    cfg.src = src;
    cfg.pps = 1000;
    cfg.max_ttl = 12;
    cfg.fill_mode = true;
    source = std::make_unique<prober::Yarrp6Source>(cfg, t);
    shard = {source.get(), cfg.endpoint(), cfg.pacing(), {}};
  }
  std::unique_ptr<prober::Yarrp6Source> source;
  Shard shard;
};

constexpr std::uint64_t kMergeSplit = 4;

/// The canonical merged stream of `shards`, built without the runner's
/// merge: every work unit (the children of split(kMergeSplit), or the
/// shard's source whole) runs alone on a fresh replica, its replies are
/// tagged in (shard, subshard, arrival) order, and a stable sort by
/// virtual time yields (virtual time, shard, subshard, arrival).
std::vector<ShardReply> reference_stream(const simnet::Topology& topo,
                                         const std::vector<Shard>& shards) {
  std::vector<ShardReply> want;
  const auto params = std::make_shared<const simnet::NetworkParams>();
  for (std::uint32_t i = 0; i < shards.size(); ++i) {
    const Shard& shard = shards[i];
    auto children = shard.source->split(kMergeSplit);
    std::vector<ProbeSource*> units;
    for (const auto& c : children) units.push_back(c.get());
    if (units.empty()) units.push_back(shard.source);
    for (std::uint32_t j = 0; j < units.size(); ++j) {
      simnet::Network net{topo, params};
      (void)CampaignRunner::run_one(
          net, *units[j], shard.endpoint, shard.pacing,
          [&](const wire::DecodedReply& r) {
            want.push_back({net.now_us(), i, j, r});
          });
    }
  }
  std::ranges::stable_sort(want, {}, &ShardReply::virtual_us);
  return want;
}

TEST_F(ParallelCampaignTest, MergeReleasesRunsOfEverySize) {
  // The merge hands each run's drained front back in 64 KiB steps, so it
  // must cope with runs of every size: mapped runs of over 1 MB (the split
  // yarrp6 family), heap runs longer than one step, heap runs shorter than
  // one, and an empty run (a source that never probes). The merged stream
  // must equal the reference merge reply for reply at any thread count.
  const auto t = targets(7000, 300);
  const Ipv6Addr src = topo_.vantages()[0].src;
  const auto build = [&](MergeFamily& family,
                         std::vector<std::unique_ptr<ProbeSource>>& owned) {
    owned.clear();
    std::vector<Shard> shards{family.shard};
    for (const std::uint64_t probes : {12'000u, 300u, 0u}) {
      owned.push_back(std::make_unique<test_support::ThrowingSource>(
          t[owned.size()], probes, 0));
      shards.push_back({owned.back().get(), {src}, PacingPolicy::uniform(1000), {}});
    }
    return shards;
  };
  MergeFamily ref_family{t, src};
  std::vector<std::unique_ptr<ProbeSource>> ref_owned;
  const auto want = reference_stream(topo_, build(ref_family, ref_owned));

  for (const unsigned threads : {1u, 2u, 8u}) {
    SCOPED_TRACE(::testing::Message() << threads << " threads");
    MergeFamily family{t, src};
    std::size_t merged_sink = 0;
    family.shard.sink = [&](const wire::DecodedReply&) { ++merged_sink; };
    std::vector<std::unique_ptr<ProbeSource>> owned;
    const ParallelCampaignRunner runner{topo_, simnet::NetworkParams{}, threads};
    const auto result = runner.run(build(family, owned),
                                   {.collect_replies = true, .split_factor = kMergeSplit});
    test_support::expect_parallel_conserved(result, true);
    ASSERT_EQ(result.replies.size(), want.size());
    for (std::size_t r = 0; r < want.size(); ++r) {
      const ShardReply& got = result.replies[r];
      ASSERT_EQ(got.virtual_us, want[r].virtual_us) << "reply " << r;
      ASSERT_EQ(got.shard, want[r].shard) << "reply " << r;
      ASSERT_EQ(got.subshard, want[r].subshard) << "reply " << r;
      ASSERT_EQ(got.reply, want[r].reply) << "reply " << r;
    }
    // Every run size the test means to cover really occurred.
    std::array<std::size_t, 7> per_unit{};  // 4 subshards, then shards 1-3
    for (const ShardReply& r : result.replies)
      ++per_unit[r.shard == 0 ? r.subshard : kMergeSplit + r.shard - 1];
    const std::size_t per_step = (std::size_t{64} << 10) / sizeof(ShardReply);
    const std::size_t per_mapping = netbase::kHugeThreshold / sizeof(ShardReply);
    for (std::size_t j = 0; j < kMergeSplit; ++j)
      EXPECT_GE(per_unit[j], per_mapping) << "subshard " << j << " run not mapped";
    EXPECT_GT(per_unit[4], per_step);
    EXPECT_LT(per_unit[4], per_mapping);
    EXPECT_GT(per_unit[5], 0u);
    EXPECT_LT(per_unit[5], per_step);
    EXPECT_EQ(per_unit[6], 0u);
    EXPECT_EQ(merged_sink, per_unit[0] + per_unit[1] + per_unit[2] + per_unit[3]);
  }
}

TEST_F(ParallelCampaignTest, ThrowingMergeSinkLeavesNoMappingBehind) {
  // A split shard's sink runs from the merge; if it throws partway, the
  // partly released runs are destroyed with the rest of the run's state,
  // and every run mapping goes back.
  const auto t = targets(7000, 300);
  for (const unsigned threads : {1u, 2u}) {
    MergeFamily family{t, topo_.vantages()[0].src};
    std::size_t delivered = 0;
    family.shard.sink = [&](const wire::DecodedReply&) {
      if (++delivered == 60'000) throw std::runtime_error{"sink failed"};
    };
    const auto mapped_before = test_support::mapped_bytes();
    const ParallelCampaignRunner runner{topo_, simnet::NetworkParams{}, threads};
    EXPECT_THROW((void)runner.run({family.shard}, {.collect_replies = true,
                                                   .split_factor = kMergeSplit}),
                 std::runtime_error)
        << threads << " threads";
    EXPECT_EQ(delivered, 60'000u);
    EXPECT_EQ(test_support::mapped_bytes(), mapped_before)
        << threads << " threads";
  }
}

TEST_F(ParallelCampaignTest, MergeHoldsEachReplyOnce) {
  // Memory gate: while the merge moves replies from the runs into the
  // merged stream, resident memory must not grow by the stream's size —
  // each run hands its drained pages back as the stream takes them over.
  // A sink delivered from the merge samples RSS at every merged reply.
  // Without the release the runs stay resident to their last reply, so
  // RSS climbs by about the whole stream and falls back only in the last
  // few replies, as the runs empty and are unmapped: the gate reads the
  // peak, not the last sample.
#ifndef __linux__
  GTEST_SKIP() << "reads /proc/self/statm";
#elif defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "TSan shadows every merged write, so RSS grows with the "
                  "stream whatever the runs give back";
#else
  const ResidentMemory rss;
  ASSERT_TRUE(rss.ok());
  const auto t = targets(7000, 300);
  MergeFamily family{t, topo_.vantages()[0].src};
  // The merged stream's reservation may reuse a free heap block that an
  // earlier test left resident, which would hide a second copy: hand the
  // free heap pages back first, so the stream's pages are fresh.
#ifdef __GLIBC__
  ::malloc_trim(0);
#endif
  std::size_t delivered = 0, first = 0, peak = 0;
  family.shard.sink = [&](const wire::DecodedReply&) {
    const std::size_t now = rss.bytes();
    if (delivered++ == 0) first = now;
    peak = std::max(peak, now);
  };
  const ParallelCampaignRunner runner{topo_, simnet::NetworkParams{}, 2};
  const auto result =
      runner.run({family.shard}, {.collect_replies = true, .split_factor = kMergeSplit});
  ASSERT_EQ(delivered, result.replies.size());
  const std::size_t stream = result.replies.size() * sizeof(ShardReply);
  ASSERT_GE(stream, std::size_t{4} << 20) << "too few replies to measure";
  // Up to one 64 KiB step per run may stay resident past the merge front;
  // a second copy of the replies shows as about the whole stream.
  EXPECT_LT(peak - first, stream / 4)
      << "merged " << stream << " B, RSS peaked " << peak - first
      << " B above its first sample";
#endif
}

}  // namespace
}  // namespace beholder6::campaign
