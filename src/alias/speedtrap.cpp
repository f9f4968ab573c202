#include "alias/speedtrap.hpp"

#include <algorithm>
#include <numeric>

#include "wire/fragment.hpp"
#include "wire/headers.hpp"

namespace beholder6::alias {

namespace {

using wire::Icmp6Header;
using wire::Ipv6Header;

constexpr std::size_t kEchoPayload = 1300;  // > min MTU: forces fragmentation
constexpr std::uint64_t kGapUs = 1000;      // virtual pacing between probes

/// Oversized ICMPv6 echo request that forces a fragmented reply.
simnet::Packet make_big_echo(const Ipv6Addr& src, const Ipv6Addr& dst,
                             std::size_t payload_size, std::uint16_t seq) {
  simnet::Packet pkt;
  Ipv6Header ip;
  ip.next_header = static_cast<std::uint8_t>(wire::Proto::kIcmp6);
  ip.hop_limit = 64;
  ip.src = src;
  ip.dst = dst;
  ip.payload_length = static_cast<std::uint16_t>(Icmp6Header::kSize + payload_size);
  ip.encode(pkt);
  Icmp6Header icmp;
  icmp.type = wire::Icmp6Type::kEchoRequest;
  icmp.id = 0x5712;  // "st": speedtrap probes, distinct from yarrp6's
  icmp.seq = seq;
  icmp.encode(pkt);
  pkt.resize(pkt.size() + payload_size, 0x42);
  wire::finalize_transport_checksum(pkt);
  return pkt;
}

/// Disjoint-set forest over candidate indices.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }
  std::size_t find(std::size_t x) {
    while (parent_[x] != x) x = parent_[x] = parent_[parent_[x]];
    return x;
  }
  void unite(std::size_t a, std::size_t b) { parent_[find(a)] = find(b); }

 private:
  std::vector<std::size_t> parent_;
};

}  // namespace

bool shares_counter(const IdSeries& a, const IdSeries& b) {
  if (a.samples.empty() || b.samples.empty()) return false;
  // Merge by global probe sequence number; a shared counter must produce a
  // strictly increasing identification sequence across the interleaving.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> merged;
  merged.reserve(a.samples.size() + b.samples.size());
  merged.insert(merged.end(), a.samples.begin(), a.samples.end());
  merged.insert(merged.end(), b.samples.begin(), b.samples.end());
  std::sort(merged.begin(), merged.end());
  for (std::size_t i = 1; i < merged.size(); ++i)
    if (merged[i].second <= merged[i - 1].second) return false;
  return true;
}

std::optional<std::uint32_t> SpeedtrapResolver::probe_once(simnet::Network& net,
                                                           const Ipv6Addr& iface) {
  ++probes_sent_;
  const auto replies = net.inject_view(
      make_big_echo(cfg_.src, iface, kEchoPayload,
                    static_cast<std::uint16_t>(probes_sent_ & 0xffff)));
  net.advance_us(kGapUs);
  for (const auto& r : replies)
    if (const auto frag = wire::fragment_of(r)) return frag->identification;
  return std::nullopt;
}

std::vector<IdSeries> SpeedtrapResolver::collect(
    simnet::Network& net, const std::vector<Ipv6Addr>& candidates) {
  std::vector<IdSeries> series(candidates.size());
  for (std::size_t i = 0; i < candidates.size(); ++i)
    series[i].iface = candidates[i];

  std::uint64_t seqno = 0;
  for (unsigned round = 0; round < cfg_.rounds; ++round) {
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      const auto id = probe_once(net, candidates[i]);
      if (id) series[i].samples.emplace_back(seqno, *id);
      ++seqno;
    }
  }

  std::vector<IdSeries> out;
  for (auto& s : series) {
    if (s.samples.size() >= 2) out.push_back(std::move(s));
    else ++unresponsive_;
  }
  return out;
}

std::vector<Router> SpeedtrapResolver::resolve(
    simnet::Network& net, const std::vector<Ipv6Addr>& candidates) {
  const auto series = collect(net, candidates);
  UnionFind uf{series.size()};
  for (std::size_t i = 0; i < series.size(); ++i)
    for (std::size_t j = i + 1; j < series.size(); ++j)
      if (shares_counter(series[i], series[j])) uf.unite(i, j);

  std::unordered_map<std::size_t, Router> clusters;
  for (std::size_t i = 0; i < series.size(); ++i)
    clusters[uf.find(i)].push_back(series[i].iface);
  std::vector<Router> routers;
  routers.reserve(clusters.size());
  // beholder6: lint-allow(unordered-iter): each router is sorted internally
  // and the router list is sorted below — output is visit-order free
  for (auto& [root, ifaces] : clusters) {
    std::sort(ifaces.begin(), ifaces.end());
    routers.push_back(std::move(ifaces));
  }
  std::sort(routers.begin(), routers.end());
  return routers;
}

}  // namespace beholder6::alias
