// Tests for the campaign engine: the pull-based ProbeSource API and the
// event-driven CampaignRunner. Covers the pinned golden sequence of each
// prober's source, shard partition exactness at the engine level, true
// multi-vantage interleaving, pause/resume stepping, and mixed-source
// campaigns.
#include "campaign/runner.hpp"

#include <gtest/gtest.h>

#include <set>

#include "prober/doubletree.hpp"
#include "prober/multivantage.hpp"
#include "prober/sequential.hpp"
#include "prober/yarrp6.hpp"
#include "topology/collector.hpp"

namespace beholder6::campaign {
namespace {

class CampaignTest : public ::testing::Test {
 protected:
  CampaignTest() : topo_(simnet::TopologyParams{}) {}

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

  static simnet::NetworkParams unlimited() {
    simnet::NetworkParams p;
    p.unlimited = true;
    return p;
  }

  simnet::Topology topo_;
};

// Golden sequences, captured from the pre-engine prober loops at the
// engine's introduction: any drift here is a reproducibility break, not a
// refactor.
TEST_F(CampaignTest, Yarrp6RunPinsGoldenSequence) {
  const auto t = targets(60);
  prober::Yarrp6Config cfg;
  cfg.src = topo_.vantages()[0].src;
  cfg.pps = 1000;
  cfg.max_ttl = 12;
  cfg.fill_mode = true;
  cfg.neighborhood = true;
  cfg.neighborhood_window_us = 300'000;

  simnet::Network net{topo_, simnet::NetworkParams{}};
  prober::Yarrp6Source source{cfg, t};
  const auto stats = CampaignRunner::run_one(net, source, cfg.endpoint(), cfg.pacing());
  EXPECT_EQ(stats.probes_sent, 643u);
  EXPECT_EQ(stats.replies, 577u);
  EXPECT_EQ(stats.fills, 24u);
  EXPECT_EQ(stats.neighborhood_skips, 101u);
  EXPECT_EQ(stats.elapsed_virtual_us, 643'000u);
  EXPECT_EQ(net.stats().time_exceeded, 517u);
  EXPECT_EQ(net.stats().rate_limited, 24u);
}

TEST_F(CampaignTest, SequentialRunPinsGoldenSequence) {
  const auto t = targets(50);
  prober::SequentialConfig cfg;
  cfg.src = topo_.vantages()[0].src;
  cfg.pps = 500;
  cfg.max_ttl = 14;

  simnet::Network net{topo_, simnet::NetworkParams{}};
  prober::SequentialSource source{cfg, t};
  const auto stats = CampaignRunner::run_one(net, source, cfg.endpoint(), cfg.pacing());
  EXPECT_EQ(stats.probes_sent, 513u);
  EXPECT_EQ(stats.replies, 349u);
  EXPECT_EQ(stats.elapsed_virtual_us, 1'026'000u);
  EXPECT_EQ(net.stats().rate_limited, 162u);
}

TEST_F(CampaignTest, DoubletreeRunPinsGoldenSequence) {
  const auto t = targets(50);
  prober::DoubletreeConfig cfg;
  cfg.src = topo_.vantages()[0].src;
  cfg.pps = 500;
  cfg.max_ttl = 14;
  cfg.start_ttl = 5;

  simnet::Network net{topo_, simnet::NetworkParams{}};
  prober::StopSet stop_set;
  prober::DoubletreeSource source{cfg, t, stop_set};
  const auto stats = CampaignRunner::run_one(net, source, cfg.endpoint(), cfg.pacing());
  EXPECT_EQ(stats.probes_sent, 457u);
  EXPECT_EQ(stats.replies, 416u);
  EXPECT_EQ(stats.elapsed_virtual_us, 914'000u);
  EXPECT_EQ(stop_set.size(), 52u);
}

TEST_F(CampaignTest, ShardedSourcesPartitionProbeSpaceExactly) {
  const auto t = targets(40);
  for (const std::uint64_t k : {2u, 3u, 5u}) {
    simnet::Network net{topo_, unlimited()};
    CampaignRunner runner{net};
    std::vector<std::unique_ptr<prober::Yarrp6Source>> sources;
    for (std::uint64_t shard = 0; shard < k; ++shard) {
      prober::Yarrp6Config cfg;
      cfg.src = topo_.vantages()[shard % topo_.vantages().size()].src;
      cfg.pps = 100000;
      cfg.max_ttl = 6;
      cfg.shard = shard;
      cfg.shard_count = k;
      sources.push_back(std::make_unique<prober::Yarrp6Source>(cfg, t));
      runner.add(*sources.back(), cfg.endpoint(), cfg.pacing());
    }
    const auto stats = runner.run();
    std::uint64_t total = 0;
    for (const auto& s : stats) total += s.probes_sent;
    EXPECT_EQ(total, t.size() * 6) << "k=" << k;
    EXPECT_EQ(net.stats().probes, total) << "k=" << k;
  }
}

TEST_F(CampaignTest, InterleavedMultiVantageMatchesSequentialCoverage) {
  const auto t = targets(60);
  prober::Yarrp6Config cfg;
  cfg.pps = 1000;
  cfg.max_ttl = 10;

  simnet::Network net_seq{topo_, unlimited()};
  const auto seq = prober::run_multi_vantage(net_seq, topo_.vantages(), t, cfg,
                                             {.interleave = false});
  simnet::Network net_int{topo_, unlimited()};
  const auto inter = prober::run_multi_vantage(net_int, topo_.vantages(), t, cfg,
                                               {.interleave = true});

  // The schedule must not change what is probed or discovered: sharding
  // fixes each vantage's probe set, and on an unlimited network every
  // Time Exceeded reply is a pure function of the probe.
  ASSERT_EQ(seq.per_vantage.size(), inter.per_vantage.size());
  for (std::size_t i = 0; i < seq.per_vantage.size(); ++i)
    EXPECT_EQ(seq.per_vantage[i].probes_sent, inter.per_vantage[i].probes_sent);
  EXPECT_EQ(seq.total_probes(), t.size() * 10);
  EXPECT_EQ(inter.total_probes(), seq.total_probes());
  EXPECT_EQ(inter.collector.interfaces(), seq.collector.interfaces());
  EXPECT_EQ(inter.collector.traces().size(), seq.collector.traces().size());

  // Interleaving is what makes the campaign concurrent in virtual time:
  // three vantages at the same pps finish in about a third of the
  // sequential campaign's virtual duration.
  EXPECT_LT(net_int.now_us(), net_seq.now_us() / 2);
}

TEST_F(CampaignTest, InterleavedVantagesAlternateProbes) {
  // With equal pps, the event queue serves same-due sources round-robin in
  // registration order, so the probe stream alternates vantages instead of
  // running them back to back.
  const auto t = targets(12);
  simnet::Network net{topo_, unlimited()};
  std::vector<Ipv6Addr> sources_seen;
  net.set_probe_observer(
      [&](const simnet::Packet& probe, std::span<const simnet::Packet>) {
        sources_seen.push_back(wire::Ipv6Header::decode(probe)->src);
      });
  prober::Yarrp6Config cfg;
  cfg.pps = 1000;
  cfg.max_ttl = 4;
  const auto res = prober::run_multi_vantage(net, topo_.vantages(), t, cfg,
                                             {.interleave = true});
  ASSERT_EQ(sources_seen.size(), res.total_probes());
  const std::size_t k = topo_.vantages().size();
  // Alternation is strict while every source is still live; the tail (the
  // largest shards' final probes) is exempt.
  std::uint64_t live = ~0ULL;
  for (const auto& s : res.per_vantage) live = std::min(live, s.probes_sent);
  for (std::size_t i = 0; i + k <= live * k; i += k) {
    std::set<Ipv6Addr> round(sources_seen.begin() + i, sources_seen.begin() + i + k);
    EXPECT_EQ(round.size(), k) << "every slot of a round is a distinct vantage";
  }
}

TEST_F(CampaignTest, StepPausesAndResumesDeterministically) {
  const auto t = targets(30);
  prober::Yarrp6Config cfg;
  cfg.src = topo_.vantages()[0].src;
  cfg.pps = 2000;
  cfg.max_ttl = 8;
  cfg.fill_mode = true;

  simnet::Network net_once{topo_, simnet::NetworkParams{}};
  prober::Yarrp6Source src_once{cfg, t};
  const auto once = CampaignRunner::run_one(net_once, src_once, cfg.endpoint(),
                                            cfg.pacing());

  simnet::Network net_stepped{topo_, simnet::NetworkParams{}};
  prober::Yarrp6Source src_stepped{cfg, t};
  CampaignRunner runner{net_stepped};
  runner.add(src_stepped, cfg.endpoint(), cfg.pacing());
  for (int i = 0; i < 100 && !runner.done(); ++i)
    ASSERT_TRUE(runner.step());  // pause point after every event
  const auto stepped = runner.run();
  EXPECT_EQ(once, stepped[0]);
  EXPECT_EQ(net_once.stats(), net_stepped.stats());
}

TEST_F(CampaignTest, MixedSourceCampaignKeepsRepliesApart) {
  // One campaign, two different prober disciplines and transports at once:
  // instance filtering must route every reply to its own source's sink.
  const auto t = targets(25);
  simnet::Network net{topo_, unlimited()};
  CampaignRunner runner{net};

  prober::Yarrp6Config ycfg;
  ycfg.src = topo_.vantages()[0].src;
  ycfg.pps = 1000;
  ycfg.max_ttl = 8;
  ycfg.instance = 7;
  prober::Yarrp6Source yarrp{ycfg, t};
  std::size_t yarrp_replies = 0;
  runner.add(yarrp, ycfg.endpoint(), ycfg.pacing(), [&](const wire::DecodedReply& r) {
    EXPECT_EQ(r.probe.instance, 7);
    ++yarrp_replies;
  });

  prober::SequentialConfig scfg;
  scfg.src = topo_.vantages()[1].src;
  scfg.proto = wire::Proto::kUdp;
  scfg.pps = 1000;
  scfg.max_ttl = 8;
  scfg.instance = 9;
  prober::SequentialSource sequential{scfg, t};
  std::size_t seq_replies = 0;
  runner.add(sequential, scfg.endpoint(), scfg.pacing(),
             [&](const wire::DecodedReply& r) {
               EXPECT_EQ(r.probe.instance, 9);
               ++seq_replies;
             });

  const auto stats = runner.run();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].probes_sent, t.size() * 8);
  EXPECT_EQ(stats[0].replies, yarrp_replies);
  EXPECT_EQ(stats[1].replies, seq_replies);
  EXPECT_GT(yarrp_replies, 0u);
  EXPECT_GT(seq_replies, 0u);
  EXPECT_EQ(net.stats().probes, stats[0].probes_sent + stats[1].probes_sent);
}

TEST_F(CampaignTest, ProbeStatsAccumulate) {
  ProbeStats a;
  a.probes_sent = 10;
  a.replies = 4;
  a.fills = 1;
  a.traces = 2;
  a.elapsed_virtual_us = 1000;
  a.undecodable_replies = 2;
  ProbeStats b;
  b.probes_sent = 5;
  b.replies = 2;
  b.neighborhood_skips = 3;
  b.traces = 1;
  b.elapsed_virtual_us = 500;
  b.undecodable_replies = 1;
  b.foreign_replies = 4;
  a += b;
  EXPECT_EQ(a.probes_sent, 15u);
  EXPECT_EQ(a.replies, 6u);
  EXPECT_EQ(a.fills, 1u);
  EXPECT_EQ(a.neighborhood_skips, 3u);
  EXPECT_EQ(a.traces, 3u);
  EXPECT_EQ(a.elapsed_virtual_us, 1500u);
  EXPECT_EQ(a.undecodable_replies, 3u);
  EXPECT_EQ(a.foreign_replies, 4u);

  simnet::NetworkStats n1;
  n1.probes = 7;
  n1.dest_unreach[3] = 2;
  simnet::NetworkStats n2;
  n2.probes = 3;
  n2.dest_unreach[3] = 1;
  n2.rate_limited = 5;
  n1 += n2;
  EXPECT_EQ(n1.probes, 10u);
  EXPECT_EQ(n1.dest_unreach[3], 3u);
  EXPECT_EQ(n1.rate_limited, 5u);
}

}  // namespace
}  // namespace beholder6::campaign
