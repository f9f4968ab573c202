// Tests for the interface-level link graph.
#include "topology/graph.hpp"

#include <gtest/gtest.h>

#include "support/literals.hpp"

namespace beholder6::topology {
namespace {

wire::DecodedReply te(const char* responder, const char* target, std::uint8_t ttl) {
  wire::DecodedReply r;
  r.responder = test_support::addr(responder);
  r.type = wire::Icmp6Type::kTimeExceeded;
  r.probe.target = test_support::addr(target);
  r.probe.ttl = ttl;
  return r;
}

TEST(LinkGraph, AdjacentHopsWitnessLinks) {
  TraceCollector c;
  c.on_reply(te("2001:db8:f::1", "2001:db8:1::1", 1));
  c.on_reply(te("2001:db8:f::2", "2001:db8:1::1", 2));
  c.on_reply(te("2001:db8:f::3", "2001:db8:1::1", 3));
  const auto g = LinkGraph::from_traces(c);
  EXPECT_EQ(g.link_count(), 2u);
  EXPECT_EQ(g.node_count(), 3u);
  EXPECT_EQ(g.max_degree(), 2u) << "the middle hop links both neighbours";

  // Pin which hop is in the middle: a second trace through f::2 alone adds
  // one node and one link only if f::2 is already a node, and raises the
  // maximum degree to 3 only if f::2 already had two links.
  c.on_reply(te("2001:db8:f::2", "2001:db8:2::1", 1));
  c.on_reply(te("2001:db8:f::4", "2001:db8:2::1", 2));
  const auto g2 = LinkGraph::from_traces(c);
  EXPECT_EQ(g2.node_count(), 4u);
  EXPECT_EQ(g2.link_count(), 3u);
  EXPECT_EQ(g2.max_degree(), 3u) << "f::2 links f::1, f::3 and f::4";
}

TEST(LinkGraph, SilentHopBreaksAdjacency) {
  TraceCollector c;
  c.on_reply(te("2001:db8:f::1", "2001:db8:1::1", 1));
  // TTL 2 silent.
  c.on_reply(te("2001:db8:f::3", "2001:db8:1::1", 3));
  const auto g = LinkGraph::from_traces(c);
  EXPECT_EQ(g.link_count(), 0u) << "a gap is unknown adjacency, not a link";
}

TEST(LinkGraph, NonTeHopsExcluded) {
  TraceCollector c;
  c.on_reply(te("2001:db8:f::1", "2001:db8:1::1", 1));
  auto du = te("2001:db8:f::2", "2001:db8:1::1", 2);
  du.type = wire::Icmp6Type::kDestUnreachable;
  du.code = 3;
  c.on_reply(du);
  const auto g = LinkGraph::from_traces(c);
  EXPECT_EQ(g.link_count(), 0u);
}

TEST(LinkGraph, SharedHopsDeduplicateAcrossTraces) {
  TraceCollector c;
  for (int t = 0; t < 5; ++t) {
    const auto target = "2001:db8:" + std::to_string(t + 1) + "::1";
    c.on_reply(te("2001:db8:f::1", target.c_str(), 1));
    c.on_reply(te("2001:db8:f::2", target.c_str(), 2));
    const auto leaf = "2001:db8:f::3" + std::to_string(t);
    c.on_reply(te(leaf.c_str(), target.c_str(), 3));
  }
  const auto g = LinkGraph::from_traces(c);
  // One shared link (f::1, f::2) plus five distinct leaf links.
  EXPECT_EQ(g.link_count(), 6u);
  EXPECT_EQ(g.max_degree(), 6u);  // f::2 connects to f::1 and five leaves
}

TEST(LinkGraph, SelfLoopsIgnored) {
  LinkGraph g;
  g.add_link(test_support::addr("::1"), test_support::addr("::1"));
  EXPECT_EQ(g.link_count(), 0u);
}

TEST(LinkGraph, RouterLevelCollapse) {
  LinkGraph g;
  const auto a1 = test_support::addr("2001:db8::a1");
  const auto a2 = test_support::addr("2001:db8::a2");  // alias of a1
  const auto b = test_support::addr("2001:db8::b");
  const auto c = test_support::addr("2001:db8::c");
  g.add_link(a1, b);
  g.add_link(a2, c);
  g.add_link(a1, a2);  // intra-router link: must vanish after collapse

  EXPECT_EQ(g.link_count(), 3u);
  std::map<Ipv6Addr, std::size_t> aliases{{a1, 0}, {a2, 0}};
  EXPECT_EQ(g.router_level_links(aliases), 2u)
      << "R0-b and R0-c; the a1-a2 link collapses away";
}

TEST(LinkGraph, ComponentsCountedAndSized) {
  LinkGraph g;
  // Component 1: path of 3. Component 2: single edge.
  g.add_link(test_support::addr("a::1"), test_support::addr("a::2"));
  g.add_link(test_support::addr("a::2"), test_support::addr("a::3"));
  g.add_link(test_support::addr("b::1"), test_support::addr("b::2"));
  EXPECT_EQ(g.component_count(), 2u);
  EXPECT_EQ(g.largest_component(), 3u);
}

TEST(LinkGraph, EmptyGraphMetrics) {
  LinkGraph g;
  EXPECT_EQ(g.component_count(), 0u);
  EXPECT_EQ(g.largest_component(), 0u);
  EXPECT_EQ(g.degeneracy(), 0u);
  EXPECT_TRUE(g.core_numbers().empty());
}

TEST(LinkGraph, CoreNumbersOfPathAreOne) {
  LinkGraph g;
  for (int i = 0; i < 5; ++i)
    g.add_link(test_support::addr(("a::" + std::to_string(i + 1)).c_str()),
               test_support::addr(("a::" + std::to_string(i + 2)).c_str()));
  for (const auto& [node, k] : g.core_numbers()) EXPECT_EQ(k, 1u);
  EXPECT_EQ(g.degeneracy(), 1u);
}

TEST(LinkGraph, TriangleWithTailCores) {
  LinkGraph g;
  const auto a = test_support::addr("a::1");
  const auto b = test_support::addr("a::2");
  const auto c = test_support::addr("a::3");
  const auto tail = test_support::addr("a::4");
  g.add_link(a, b);
  g.add_link(b, c);
  g.add_link(c, a);
  g.add_link(a, tail);
  const auto core = g.core_numbers();
  EXPECT_EQ(core.at(a), 2u);
  EXPECT_EQ(core.at(b), 2u);
  EXPECT_EQ(core.at(c), 2u);
  EXPECT_EQ(core.at(tail), 1u);
  EXPECT_EQ(g.degeneracy(), 2u);
}

TEST(LinkGraph, CliqueCoreEqualsSizeMinusOne) {
  LinkGraph g;
  std::vector<Ipv6Addr> nodes;
  for (int i = 1; i <= 5; ++i)
    nodes.push_back(test_support::addr(("c::" + std::to_string(i)).c_str()));
  for (std::size_t i = 0; i < nodes.size(); ++i)
    for (std::size_t j = i + 1; j < nodes.size(); ++j) g.add_link(nodes[i], nodes[j]);
  for (const auto& n : nodes) EXPECT_EQ(g.core_numbers().at(n), 4u);
  EXPECT_EQ(g.degeneracy(), 4u);
}

TEST(LinkGraph, TraceGraphIsTreeLikeConnectedFromOneVantage) {
  // Traces from one vantage share initial hops: one component, degeneracy 1
  // (trees have no 2-core).
  TraceCollector c;
  for (int t = 0; t < 8; ++t) {
    const auto target = "2001:db8:" + std::to_string(t + 1) + "::1";
    c.on_reply(te("2001:db8:f::1", target.c_str(), 1));
    c.on_reply(te("2001:db8:f::2", target.c_str(), 2));
    const auto leaf = "2001:db8:fe::" + std::to_string(t + 1);
    c.on_reply(te(leaf.c_str(), target.c_str(), 3));
  }
  const auto g = LinkGraph::from_traces(c);
  EXPECT_EQ(g.component_count(), 1u);
  EXPECT_EQ(g.largest_component(), g.node_count());
  EXPECT_EQ(g.degeneracy(), 1u);
}

}  // namespace
}  // namespace beholder6::topology
