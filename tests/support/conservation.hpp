// tests/support/conservation.hpp — conservation identities over the
// network's and the campaign front ends' counters. Every probe the
// network takes ends in exactly one outcome, every reply packet it returns
// reaches a source or is counted as dropped, every merge
// emits each recorded reply exactly once, and a collector counts every
// reply it is fed. A counter that drops or double-counts an outcome breaks
// one of these sums even while every run-against-run equality gate still
// holds.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <span>

#include "campaign/parallel.hpp"
#include "campaign/reactor.hpp"
#include "simnet/network.hpp"
#include "topology/collector.hpp"

namespace beholder6::test_support {

/// Destination Unreachable replies, over every ICMPv6 code.
inline std::uint64_t dest_unreach_total(const simnet::NetworkStats& n) {
  std::uint64_t s = 0;
  for (const auto v : n.dest_unreach) s += v;
  return s;
}

/// Replies the network generated: Time Exceeded, Echo Reply and
/// Destination Unreachable.
inline std::uint64_t responses(const simnet::NetworkStats& n) {
  return n.time_exceeded + n.echo_replies + dest_unreach_total(n);
}

/// Every probe ends as a response, a rate-limited response, a silent
/// drop, an in-flight loss or a malformed packet.
inline void expect_network_conserved(const simnet::NetworkStats& n) {
  EXPECT_EQ(n.probes, responses(n) + n.rate_limited + n.silent_drops +
                          n.lost_replies + n.malformed)
      << "probes " << n.probes << " = responses " << responses(n)
      << " + rate_limited " << n.rate_limited << " + silent_drops "
      << n.silent_drops << " + lost_replies " << n.lost_replies
      << " + malformed " << n.malformed;
}

/// The network identity, plus the Pacer's: every reply packet the network
/// returned to a campaign (each response once, each injected duplicate
/// once more) was either dispatched to its source or counted as dropped.
/// A response fragmented into several packets would count once per
/// fragment; no Pacer probe is large enough for its reply to fragment.
/// The simulator never returns a reply the Pacer may drop (every reply is
/// ICMPv6 and echoes or quotes the probe's instance id), so the sources
/// must also have seen every reply: a decoder or Pacer fault that sorted
/// good replies into a reject counter would still satisfy the first sum.
inline void expect_campaign_conserved(const campaign::ProbeStats& p,
                                      const simnet::NetworkStats& n) {
  expect_network_conserved(n);
  EXPECT_EQ(responses(n) + n.dup_replies,
            p.replies + p.undecodable_replies + p.foreign_replies)
      << "responses " << responses(n) << " + dup_replies " << n.dup_replies
      << " = replies " << p.replies << " + undecodable "
      << p.undecodable_replies << " + foreign " << p.foreign_replies;
  EXPECT_EQ(p.replies, responses(n) + n.dup_replies)
      << "replies " << p.replies << " = responses " << responses(n)
      << " + dup_replies " << n.dup_replies;
}

/// The campaign identities per shard and in total, plus the merge's: with
/// ParallelRunOptions::collect_replies on, the merged stream holds every
/// reply exactly once.
inline void expect_parallel_conserved(const campaign::ParallelResult& r,
                                      bool collect_replies) {
  for (std::size_t i = 0; i < r.per_shard.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "shard " << i);
    expect_campaign_conserved(r.per_shard[i], r.per_shard_net[i]);
  }
  expect_campaign_conserved(r.probe_stats, r.net_stats);
  if (!collect_replies) return;
  EXPECT_EQ(r.replies.size(), r.probe_stats.replies);
  EXPECT_EQ(r.merge_perf.replies_merged, r.probe_stats.replies);
}

/// A collector counted every reply it was fed once, as Time Exceeded or
/// not, and every interface it learned is among its responders.
inline void expect_collector_conserved(const topology::TraceCollector& c,
                                       std::uint64_t fed) {
  EXPECT_EQ(c.te_responses() + c.non_te_responses(), fed)
      << "te " << c.te_responses() << " + non_te " << c.non_te_responses()
      << " = fed " << fed;
  std::size_t missing = 0;
  for (const auto& iface : c.interfaces()) missing += !c.responders().contains(iface);
  EXPECT_EQ(missing, 0u) << "interfaces that are not responders";
}

/// With ReactorOptions::collect_merged on, the merged stream holds every
/// reply of `handles` exactly once; they must be every campaign the
/// reactor admitted.
inline void expect_reactor_conserved(
    campaign::CampaignReactor& reactor,
    std::span<const campaign::CampaignHandle> handles) {
  std::uint64_t replies = 0;
  for (const auto& h : handles) replies += reactor.stats(h)->replies;
  EXPECT_EQ(reactor.merged().size(), replies);
}

}  // namespace beholder6::test_support
