// topology/graph.hpp — interface-level link graph from reassembled traces.
//
// Consecutive responding hops (TTL t and t+1 of one trace) witness an IP
// link. The paper's protocol discussion leans on Luckie et al.'s finding
// that probe protocol changes the number of links inferred; this module
// provides the link accounting, plus the degree stats used to sanity-check
// topology shape. With alias resolution (alias::SpeedtrapResolver) the
// interface graph collapses into a router-level graph.
#pragma once

#include <cstddef>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "netbase/ipv6.hpp"
#include "topology/collector.hpp"

namespace beholder6::topology {

/// An undirected interface-level link witnessed by at least one trace.
using Link = std::pair<Ipv6Addr, Ipv6Addr>;  // ordered: first < second

class LinkGraph {
 public:
  /// Harvest links from every trace in a collector. Only adjacent TTLs with
  /// Time Exceeded responses witness a link (a silent hop in between means
  /// the adjacency is unknown, not a link).
  static LinkGraph from_traces(const TraceCollector& collector);

  void add_link(const Ipv6Addr& a, const Ipv6Addr& b);

  [[nodiscard]] std::size_t node_count() const { return degree_.size(); }
  [[nodiscard]] std::size_t link_count() const { return links_.size(); }

  /// Maximum degree across the graph — high-degree nodes are the shared
  /// near-vantage and core routers.
  [[nodiscard]] std::size_t max_degree() const;

  /// Collapse interfaces into routers: `aliases` maps interface → router
  /// index; unmapped interfaces stay singleton routers. Returns the number
  /// of router-level links (self-links from intra-router pairs dropped).
  [[nodiscard]] std::size_t router_level_links(
      const std::map<Ipv6Addr, std::size_t>& aliases) const;

  /// Number of connected components (isolated nodes cannot occur: every
  /// node enters via a link).
  [[nodiscard]] std::size_t component_count() const;

  /// Size of the largest connected component, in nodes.
  [[nodiscard]] std::size_t largest_component() const;

  /// K-core decomposition (Czyz et al.'s centrality analysis, cited in §2):
  /// returns each node's core number, i.e. the largest k such that the node
  /// survives in the subgraph where every node has degree >= k.
  [[nodiscard]] std::map<Ipv6Addr, std::size_t> core_numbers() const;

  /// The maximum core number across the graph (0 for an empty graph).
  [[nodiscard]] std::size_t degeneracy() const;

 private:
  /// Adjacency view materialized from the link set.
  [[nodiscard]] std::map<Ipv6Addr, std::vector<Ipv6Addr>> adjacency() const;

  std::set<Link> links_;
  std::map<Ipv6Addr, std::size_t> degree_;
};

}  // namespace beholder6::topology
