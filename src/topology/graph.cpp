#include "topology/graph.hpp"

#include <algorithm>

namespace beholder6::topology {

LinkGraph LinkGraph::from_traces(const TraceCollector& collector) {
  LinkGraph g;
  for (const auto& [target, trace] : collector.traces()) {
    for (const auto& [ttl, hop] : trace.hops) {
      if (hop.type != wire::Icmp6Type::kTimeExceeded) continue;
      const auto next = trace.hops.find(static_cast<std::uint8_t>(ttl + 1));
      if (next == trace.hops.end()) continue;
      if (next->second.type != wire::Icmp6Type::kTimeExceeded) continue;
      g.add_link(hop.iface, next->second.iface);
    }
  }
  return g;
}

void LinkGraph::add_link(const Ipv6Addr& a, const Ipv6Addr& b) {
  if (a == b) return;  // a loop is a measurement artifact, not a link
  const Link link = a < b ? Link{a, b} : Link{b, a};
  if (links_.insert(link).second) {
    ++degree_[link.first];
    ++degree_[link.second];
  }
}

std::size_t LinkGraph::max_degree() const {
  std::size_t best = 0;
  for (const auto& [a, d] : degree_) best = std::max(best, d);
  return best;
}

std::size_t LinkGraph::router_level_links(
    const std::map<Ipv6Addr, std::size_t>& aliases) const {
  // Router id: alias cluster index where known, else a unique id derived
  // from the interface itself (offset past all cluster indices).
  std::size_t next_singleton = 0;
  for (const auto& [iface, idx] : aliases)
    next_singleton = std::max(next_singleton, idx + 1);
  std::map<Ipv6Addr, std::size_t> router;
  auto router_of = [&](const Ipv6Addr& a) {
    if (const auto it = aliases.find(a); it != aliases.end()) return it->second;
    const auto [it, fresh] = router.emplace(a, next_singleton);
    if (fresh) ++next_singleton;
    return it->second;
  };
  std::set<std::pair<std::size_t, std::size_t>> rlinks;
  for (const auto& [a, b] : links_) {
    const auto ra = router_of(a), rb = router_of(b);
    if (ra == rb) continue;
    rlinks.emplace(std::min(ra, rb), std::max(ra, rb));
  }
  return rlinks.size();
}

std::map<Ipv6Addr, std::vector<Ipv6Addr>> LinkGraph::adjacency() const {
  std::map<Ipv6Addr, std::vector<Ipv6Addr>> adj;
  for (const auto& [a, b] : links_) {
    adj[a].push_back(b);
    adj[b].push_back(a);
  }
  return adj;
}

std::size_t LinkGraph::component_count() const {
  const auto adj = adjacency();
  std::set<Ipv6Addr> seen;
  std::size_t components = 0;
  for (const auto& [start, neigh] : adj) {
    if (seen.contains(start)) continue;
    ++components;
    std::vector<Ipv6Addr> stack{start};
    seen.insert(start);
    while (!stack.empty()) {
      const auto node = stack.back();
      stack.pop_back();
      for (const auto& n : adj.at(node))
        if (seen.insert(n).second) stack.push_back(n);
    }
  }
  return components;
}

std::size_t LinkGraph::largest_component() const {
  const auto adj = adjacency();
  std::set<Ipv6Addr> seen;
  std::size_t best = 0;
  for (const auto& [start, neigh] : adj) {
    if (seen.contains(start)) continue;
    std::size_t size = 0;
    std::vector<Ipv6Addr> stack{start};
    seen.insert(start);
    while (!stack.empty()) {
      const auto node = stack.back();
      stack.pop_back();
      ++size;
      for (const auto& n : adj.at(node))
        if (seen.insert(n).second) stack.push_back(n);
    }
    best = std::max(best, size);
  }
  return best;
}

std::map<Ipv6Addr, std::size_t> LinkGraph::core_numbers() const {
  // Peeling: repeatedly remove the minimum-degree node; its core number is
  // the running maximum of the degrees observed at removal time.
  const auto adj = adjacency();
  std::map<Ipv6Addr, std::size_t> deg;
  for (const auto& [node, neigh] : adj) deg[node] = neigh.size();

  // Bucket queue over degrees.
  std::map<std::size_t, std::set<Ipv6Addr>> buckets;
  for (const auto& [node, d] : deg) buckets[d].insert(node);

  std::map<Ipv6Addr, std::size_t> core;
  std::size_t k = 0;
  while (!buckets.empty()) {
    auto it = buckets.begin();
    if (it->second.empty()) {
      buckets.erase(it);
      continue;
    }
    const auto d = it->first;
    const auto node = *it->second.begin();
    it->second.erase(it->second.begin());
    k = std::max(k, d);
    core[node] = k;
    // Decrement surviving neighbours.
    for (const auto& n : adj.at(node)) {
      if (core.contains(n)) continue;
      const auto dn = deg[n];
      buckets[dn].erase(n);
      deg[n] = dn - 1;
      buckets[dn - 1].insert(n);
    }
  }
  return core;
}

std::size_t LinkGraph::degeneracy() const {
  std::size_t best = 0;
  for (const auto& [node, k] : core_numbers()) best = std::max(best, k);
  return best;
}

}  // namespace beholder6::topology
