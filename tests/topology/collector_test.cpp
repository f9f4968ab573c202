// Tests for TraceCollector: reassembly, metrics, EUI-64 reporting.
#include "topology/collector.hpp"

#include <gtest/gtest.h>

#include <map>
#include <tuple>
#include <utility>
#include <vector>

#include "netbase/eui64.hpp"
#include "netbase/rng.hpp"

namespace beholder6::topology {
namespace {

wire::DecodedReply reply(const char* responder, const char* target,
                         std::uint8_t ttl,
                         wire::Icmp6Type type = wire::Icmp6Type::kTimeExceeded,
                         std::uint8_t code = 0) {
  wire::DecodedReply r;
  r.responder = Ipv6Addr::must_parse(responder);
  r.type = type;
  r.code = code;
  r.probe.target = Ipv6Addr::must_parse(target);
  r.probe.ttl = ttl;
  return r;
}

TEST(Collector, ReassemblesOutOfOrderReplies) {
  TraceCollector c;
  c.on_reply(reply("2001:db8:f::3", "2001:db8:1::1", 3));
  c.on_reply(reply("2001:db8:f::1", "2001:db8:1::1", 1));
  c.on_reply(reply("2001:db8:f::2", "2001:db8:1::1", 2));
  ASSERT_EQ(c.traces().size(), 1u);
  const auto& tr = c.traces().begin()->second;
  const auto hops = tr.router_hops();
  ASSERT_EQ(hops.size(), 3u);
  EXPECT_EQ(hops[0].to_string(), "2001:db8:f::1");
  EXPECT_EQ(hops[2].to_string(), "2001:db8:f::3");
  EXPECT_EQ(tr.path_len(), 3);
}

TEST(Collector, InterleavedTargetsSeparate) {
  TraceCollector c;
  c.on_reply(reply("2001:db8:f::1", "2001:db8:1::1", 1));
  c.on_reply(reply("2001:db8:f::9", "2001:db8:2::1", 1));
  c.on_reply(reply("2001:db8:f::2", "2001:db8:1::1", 2));
  EXPECT_EQ(c.traces().size(), 2u);
  EXPECT_EQ(c.interfaces().size(), 3u);
}

TEST(Collector, FirstResponsePerTtlWins) {
  TraceCollector c;
  c.on_reply(reply("2001:db8:f::1", "2001:db8:1::1", 1));
  c.on_reply(reply("2001:db8:f::ee", "2001:db8:1::1", 1));  // duplicate TTL
  const auto& tr = c.traces().begin()->second;
  EXPECT_EQ(tr.hops.at(1).iface.to_string(), "2001:db8:f::1");
  EXPECT_EQ(c.interfaces().size(), 2u) << "both sources still counted";
}

TEST(Collector, ReachedDetection) {
  TraceCollector c;
  c.on_reply(reply("2001:db8:1::1", "2001:db8:1::1", 9, wire::Icmp6Type::kEchoReply));
  c.on_reply(reply("2001:db8:f::1", "2001:db8:2::1", 1));
  EXPECT_EQ(c.traces().at(Ipv6Addr::must_parse("2001:db8:1::1")).reached, true);
  EXPECT_EQ(c.traces().at(Ipv6Addr::must_parse("2001:db8:2::1")).reached, false);
  EXPECT_NEAR(c.reached_fraction(), 0.5, 1e-9);
}

TEST(Collector, NonTeResponsesCountedSeparately) {
  TraceCollector c;
  c.on_reply(reply("2001:db8:f::1", "2001:db8:1::1", 1));
  c.on_reply(reply("2001:db8:f::2", "2001:db8:1::1", 9,
                   wire::Icmp6Type::kDestUnreachable, 3));
  EXPECT_EQ(c.te_responses(), 1u);
  EXPECT_EQ(c.non_te_responses(), 1u);
  // DU sources are responders but not "interface addresses".
  EXPECT_EQ(c.interfaces().size(), 1u);
  EXPECT_EQ(c.responders().size(), 2u);
}

TEST(Collector, PathLenPercentiles) {
  TraceCollector c;
  for (int t = 0; t < 10; ++t) {
    const auto target = "2001:db8:" + std::to_string(t + 1) + "::1";
    for (std::uint8_t ttl = 1; ttl <= t + 1; ++ttl)
      c.on_reply(reply(("2001:db8:f::" + std::to_string(ttl)).c_str(),
                       target.c_str(), ttl));
  }
  EXPECT_EQ(c.path_len_percentile(0.5), 6);
  EXPECT_EQ(c.path_len_percentile(0.95), 10);
  EXPECT_EQ(c.path_len_percentile(0.0), 1);
}

TEST(Collector, DiscoveryCurveIsMonotone) {
  TraceCollector c;
  for (int i = 0; i < 3000; ++i) {
    const auto resp = Ipv6Addr::from_halves(0x20010db8000000ffULL, i % 500 + 1);
    wire::DecodedReply r;
    r.responder = resp;
    r.type = wire::Icmp6Type::kTimeExceeded;
    r.probe.target = Ipv6Addr::from_halves(0x20010db800000001ULL, i);
    r.probe.ttl = 1;
    c.on_reply(r, static_cast<std::uint64_t>(i) + 1);
  }
  const auto& curve = c.discovery_curve();
  ASSERT_GT(curve.size(), 3u);
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_GT(curve[i].probes, curve[i - 1].probes);
    EXPECT_GE(curve[i].unique_interfaces, curve[i - 1].unique_interfaces);
  }
  EXPECT_LE(curve.back().unique_interfaces, 500u);
}

TEST(Collector, Eui64ReportCountsAndOffsets) {
  TraceCollector c;
  const Mac mac{{0xa4, 0x52, 0xf0, 1, 2, 3}};
  const auto eui_iface = Ipv6Addr::from_halves(0x20010db800010001ULL, eui64_iid(mac));
  // Trace 1: EUI hop at TTL 3 of a 3-hop path (offset 0).
  c.on_reply(reply("2001:db8:f::1", "2001:db8:1::1", 1));
  c.on_reply(reply("2001:db8:f::2", "2001:db8:1::1", 2));
  {
    wire::DecodedReply r;
    r.responder = eui_iface;
    r.type = wire::Icmp6Type::kTimeExceeded;
    r.probe.target = Ipv6Addr::must_parse("2001:db8:1::1");
    r.probe.ttl = 3;
    c.on_reply(r);
  }
  const auto rep = c.eui64_report();
  EXPECT_EQ(rep.eui64_interfaces, 1u);
  EXPECT_NEAR(rep.frac_of_interfaces, 1.0 / 3.0, 1e-9);
  EXPECT_EQ(rep.offset_median, 0);
  EXPECT_EQ(rep.offset_p5, 0);
}

TEST(Collector, Eui64OffsetNegativeWhenMidPath) {
  TraceCollector c;
  const Mac mac{{0xa4, 0x52, 0xf0, 9, 9, 9}};
  const auto eui_iface = Ipv6Addr::from_halves(0x20010db8000100aaULL, eui64_iid(mac));
  wire::DecodedReply r;
  r.responder = eui_iface;
  r.type = wire::Icmp6Type::kTimeExceeded;
  r.probe.target = Ipv6Addr::must_parse("2001:db8:1::1");
  r.probe.ttl = 2;
  c.on_reply(r);
  c.on_reply(reply("2001:db8:f::5", "2001:db8:1::1", 5));
  const auto rep = c.eui64_report();
  EXPECT_EQ(rep.offset_median, -3);  // EUI hop at 2, path len 5
}

TEST(Collector, EmptyCollectorDefaults) {
  TraceCollector c;
  EXPECT_EQ(c.reached_fraction(), 0.0);
  EXPECT_EQ(c.path_len_percentile(0.5), 0);
  EXPECT_EQ(c.eui64_report().eui64_interfaces, 0u);
  EXPECT_TRUE(c.discovery_curve().empty());
}

// ---- Semantics the reply log must keep ------------------------------------

// A layout-free image of every derived view, for comparing collectors.
struct Snapshot {
  using Hop = std::tuple<int, Ipv6Addr, wire::Icmp6Type, int, std::uint32_t>;
  std::map<Ipv6Addr, std::pair<std::vector<Hop>, bool>> traces;
  std::vector<Ipv6Addr> responders, interfaces;
  double reached = 0;
  int p50 = 0, p95 = 0;
  TraceCollector::Eui64Report eui;
  std::uint64_t te = 0, non_te = 0;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> curve;
};

Snapshot snapshot(const TraceCollector& c) {
  Snapshot s;
  for (const auto& [target, tr] : c.traces()) {
    EXPECT_EQ(tr.target, target);
    auto& [hops, reached] = s.traces[target];
    for (const auto& [ttl, hop] : tr.hops)
      hops.emplace_back(ttl, hop.iface, hop.type, hop.code, hop.rtt_us);
    reached = tr.reached;
  }
  s.responders.assign(c.responders().begin(), c.responders().end());
  std::sort(s.responders.begin(), s.responders.end());
  s.interfaces.assign(c.interfaces().begin(), c.interfaces().end());
  std::sort(s.interfaces.begin(), s.interfaces.end());
  s.reached = c.reached_fraction();
  s.p50 = c.path_len_percentile(0.5);
  s.p95 = c.path_len_percentile(0.95);
  s.eui = c.eui64_report();
  s.te = c.te_responses();
  s.non_te = c.non_te_responses();
  for (const auto& d : c.discovery_curve()) s.curve.emplace_back(d.probes, d.unique_interfaces);
  return s;
}

void expect_same(const Snapshot& a, const Snapshot& b) {
  EXPECT_EQ(a.traces, b.traces);
  EXPECT_EQ(a.responders, b.responders);
  EXPECT_EQ(a.interfaces, b.interfaces);
  EXPECT_EQ(a.reached, b.reached);
  EXPECT_EQ(a.p50, b.p50);
  EXPECT_EQ(a.p95, b.p95);
  EXPECT_EQ(a.eui.eui64_interfaces, b.eui.eui64_interfaces);
  EXPECT_EQ(a.eui.frac_of_interfaces, b.eui.frac_of_interfaces);
  EXPECT_EQ(a.eui.offset_median, b.eui.offset_median);
  EXPECT_EQ(a.eui.offset_p5, b.eui.offset_p5);
  EXPECT_EQ(a.te, b.te);
  EXPECT_EQ(a.non_te, b.non_te);
  EXPECT_EQ(a.curve, b.curve);
}

// A campaign-shaped stream: 40 targets, TTLs 1..12 in shuffled order, some
// duplicate replies (a later one from a different source), EUI-64 hops,
// and destination replies from the target itself at the path's end.
std::vector<wire::DecodedReply> mixed_stream() {
  Rng rng{7};
  const Mac mac{{0xa4, 0x52, 0xf0, 1, 2, 3}};
  std::vector<wire::DecodedReply> out;
  for (std::uint64_t t = 0; t < 40; ++t) {
    const auto target = Ipv6Addr::from_halves(0x20010db800010000ULL + t, 1);
    const auto len = static_cast<std::uint8_t>(3 + t % 10);
    for (std::uint8_t ttl = 1; ttl <= 12; ++ttl) {
      wire::DecodedReply r;
      r.probe.target = target;
      r.probe.ttl = ttl;
      r.rtt_us = static_cast<std::uint32_t>(1000 * t + ttl);
      if (ttl < len) {
        r.responder = ttl == len - 1 && t % 3 == 0
                          ? Ipv6Addr::from_halves(0x20010db8ffff0000ULL + t, eui64_iid(mac))
                          : Ipv6Addr::from_halves(0x20010db8ff000000ULL, ttl * 7 + t % 4);
      } else if (t % 4 != 3) {
        r.responder = target;
        r.type = wire::Icmp6Type::kEchoReply;
      } else {
        r.responder = Ipv6Addr::from_halves(0x20010db8fe000000ULL, t);
        r.type = wire::Icmp6Type::kDestUnreachable;
        r.code = 3;
      }
      out.push_back(r);
      if (rng.below(8) == 0) {  // a duplicate from another source
        r.responder = Ipv6Addr::from_halves(0x20010db8fd000000ULL, rng.below(64));
        r.type = wire::Icmp6Type::kTimeExceeded;
        r.rtt_us += 1;
        out.push_back(r);
      }
    }
  }
  // Fisher-Yates with the seeded generator, so replies interleave across
  // targets and TTLs the way a randomized campaign delivers them.
  for (std::size_t i = out.size(); i > 1; --i)
    std::swap(out[i - 1], out[rng.below(i)]);
  return out;
}

TEST(CollectorLog, DuplicateTtlKeepsFirstArrivalAcrossInterleavedTargets) {
  TraceCollector c;
  c.on_reply(reply("2001:db8:f::b", "2001:db8:2::1", 4));
  c.on_reply(reply("2001:db8:f::1", "2001:db8:1::1", 4));
  c.on_reply(reply("2001:db8:f::c", "2001:db8:2::1", 4));
  c.on_reply(reply("2001:db8:f::9", "2001:db8:3::1", 4));
  c.on_reply(reply("2001:db8:f::2", "2001:db8:1::1", 4));
  c.on_reply(reply("2001:db8:f::d", "2001:db8:2::1", 4));
  const auto& t = c.traces();
  EXPECT_EQ(t.at(Ipv6Addr::must_parse("2001:db8:1::1")).hops.at(4).iface.to_string(),
            "2001:db8:f::1");
  EXPECT_EQ(t.at(Ipv6Addr::must_parse("2001:db8:2::1")).hops.at(4).iface.to_string(),
            "2001:db8:f::b");
  EXPECT_EQ(t.at(Ipv6Addr::must_parse("2001:db8:3::1")).hops.at(4).iface.to_string(),
            "2001:db8:f::9");
  for (const auto& [target, tr] : t) EXPECT_EQ(tr.hops.size(), 1u);
}

TEST(CollectorLog, DuplicateTtlAfterAReadKeepsFirstArrival) {
  TraceCollector c;
  c.on_reply(reply("2001:db8:f::1", "2001:db8:1::1", 2));
  ASSERT_EQ(c.traces().size(), 1u);
  c.on_reply(reply("2001:db8:f::ee", "2001:db8:1::1", 2));
  c.on_reply(reply("2001:db8:f::3", "2001:db8:1::1", 3));
  const auto& tr = c.traces().at(Ipv6Addr::must_parse("2001:db8:1::1"));
  ASSERT_EQ(tr.hops.size(), 2u);
  EXPECT_EQ(tr.hops.at(2).iface.to_string(), "2001:db8:f::1");
  EXPECT_EQ(tr.hops.at(3).iface.to_string(), "2001:db8:f::3");
  EXPECT_TRUE(c.responders().contains(Ipv6Addr::must_parse("2001:db8:f::ee")));
}

TEST(CollectorLog, ReachedIsSetByALosingDuplicate) {
  TraceCollector c;
  c.on_reply(reply("2001:db8:f::5", "2001:db8:1::1", 5));
  c.on_reply(reply("2001:db8:1::1", "2001:db8:1::1", 5, wire::Icmp6Type::kEchoReply));
  const auto& tr = c.traces().at(Ipv6Addr::must_parse("2001:db8:1::1"));
  EXPECT_EQ(tr.hops.at(5).iface.to_string(), "2001:db8:f::5");
  EXPECT_TRUE(tr.reached);
  EXPECT_EQ(c.reached_fraction(), 1.0);
}

TEST(CollectorLog, RespondersIncludeTheSourceOfALosingDuplicate) {
  TraceCollector c;
  c.on_reply(reply("2001:db8:f::1", "2001:db8:1::1", 3));
  c.on_reply(reply("2001:db8:f::2", "2001:db8:1::1", 3, wire::Icmp6Type::kDestUnreachable, 1));
  EXPECT_TRUE(c.responders().contains(Ipv6Addr::must_parse("2001:db8:f::2")));
  EXPECT_EQ(c.responders().size(), 2u);
  EXPECT_EQ(c.interfaces().size(), 1u);
}

TEST(CollectorLog, ReadFeedReadEqualsOneShot) {
  const auto stream = mixed_stream();
  TraceCollector one_shot;
  for (std::size_t i = 0; i < stream.size(); ++i) one_shot.on_reply(stream[i], i + 1);
  const auto want = snapshot(one_shot);
  ASSERT_EQ(want.traces.size(), 40u);
  ASSERT_GT(want.eui.eui64_interfaces, 0u);
  ASSERT_GT(want.reached, 0.0);

  // Reads between batches of every size, down to single replies.
  for (const std::size_t batch : {1u, 7u, 100u, 333u}) {
    TraceCollector c;
    for (std::size_t i = 0; i < stream.size(); ++i) {
      c.on_reply(stream[i], i + 1);
      if ((i + 1) % batch == 0) (void)snapshot(c);
    }
    expect_same(snapshot(c), want);
  }
}

TEST(CollectorLog, TracesReadCorrectlyAfterAMove) {
  const auto stream = mixed_stream();
  TraceCollector ref;
  for (const auto& r : stream) ref.on_reply(r);
  const auto want = snapshot(ref);

  TraceCollector unread;  // moved before the first read
  for (const auto& r : stream) unread.on_reply(r);
  const TraceCollector moved_unread = std::move(unread);
  expect_same(snapshot(moved_unread), want);

  TraceCollector read;  // moved after a read
  for (const auto& r : stream) read.on_reply(r);
  (void)snapshot(read);
  TraceCollector moved_read;
  moved_read = std::move(read);
  expect_same(snapshot(moved_read), want);

  const TraceCollector copied = moved_read;  // a copy reads on its own
  moved_read = TraceCollector{};
  expect_same(snapshot(copied), want);
}

TEST(CollectorLog, TracesReadCorrectlyAfterTheirVectorGrows) {
  const auto stream = mixed_stream();
  TraceCollector ref;
  for (const auto& r : stream) ref.on_reply(r);
  const auto want = snapshot(ref);

  std::vector<TraceCollector> cs;
  for (int i = 0; i < 9; ++i) {
    cs.emplace_back();
    for (const auto& r : stream) cs.back().on_reply(r);
    if (i % 2 == 0) (void)snapshot(cs.back());  // half of them read before growth
  }
  for (const auto& c : cs) expect_same(snapshot(c), want);
}

}  // namespace
}  // namespace beholder6::topology
