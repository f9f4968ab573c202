// ablation_randomization — which part of yarrp6's randomization matters?
//
// Three probe orders at the same average rate against the same rate-limited
// network:
//   full      — random over (target × TTL), the yarrp6 design
//   ttl-seq   — random target order, but TTLs 1..16 sequentially per target
//   ttl-burst — targets in order, synchronized per-TTL rounds (scamper-like)
// Per-hop responsiveness near the vantage shows that randomizing TTLs (not
// just targets) is what defeats the near-hop token buckets.
#include "bench/common.hpp"

using namespace beholder6;

namespace {

double hop1(const topology::TraceCollector& c, std::size_t traces) {
  std::size_t have = 0;
  for (const auto& [t, tr] : c.traces()) have += tr.hops.contains(1);
  return static_cast<double>(have) / static_cast<double>(traces);
}

}  // namespace

int main() {
  bench::World world;
  const auto set = world.synth("caida", 64);
  const auto& vantage = world.topo.vantages()[0];
  const double pps = 1000;
  const std::uint64_t gap = static_cast<std::uint64_t>(1e6 / pps);

  auto send = [&](simnet::Network& net, topology::TraceCollector& c,
                  const Ipv6Addr& target, std::uint8_t ttl, std::uint64_t adv) {
    wire::ProbeSpec spec;
    spec.src = vantage.src;
    spec.target = target;
    spec.ttl = ttl;
    spec.elapsed_us = static_cast<std::uint32_t>(net.now_us());
    for (const auto& r : net.inject_view(wire::encode_probe(spec)))
      if (const auto dec =
              wire::decode_reply(r, static_cast<std::uint32_t>(net.now_us())))
        c.on_reply(*dec);
    net.advance_us(adv);
  };

  std::printf("%-12s %10s %10s %10s\n", "order", "hop1 resp", "ifaces",
              "rate-ltd");
  bench::rule();

  // full: random permutation over (target x TTL) — uniform pacing.
  {
    simnet::Network net{world.topo, simnet::NetworkParams{}};
    topology::TraceCollector c;
    Permutation perm{set.set.size() * 16, 0xab1e};
    for (std::uint64_t i = 0; i < perm.size(); ++i) {
      const auto v = perm.map(i);
      send(net, c, set.set.addrs[v / 16], static_cast<std::uint8_t>(v % 16 + 1), gap);
    }
    std::printf("%-12s %9.0f%% %10zu %10llu\n", "full", 100 * hop1(c, set.set.size()),
                c.interfaces().size(),
                static_cast<unsigned long long>(net.stats().rate_limited));
  }

  // ttl-seq: random targets, sequential TTLs per target, uniform pacing.
  {
    simnet::Network net{world.topo, simnet::NetworkParams{}};
    topology::TraceCollector c;
    Permutation perm{set.set.size(), 0xab1e};
    for (std::uint64_t i = 0; i < perm.size(); ++i) {
      const auto& target = set.set.addrs[perm.map(i)];
      for (std::uint8_t ttl = 1; ttl <= 16; ++ttl) send(net, c, target, ttl, gap);
    }
    std::printf("%-12s %9.0f%% %10zu %10llu\n", "ttl-seq",
                100 * hop1(c, set.set.size()), c.interfaces().size(),
                static_cast<unsigned long long>(net.stats().rate_limited));
  }

  // ttl-burst: synchronized per-TTL rounds at line rate within the round.
  {
    simnet::Network net{world.topo, simnet::NetworkParams{}};
    topology::TraceCollector c;
    const std::size_t window = static_cast<std::size_t>(pps * 0.05);
    for (std::size_t base = 0; base < set.set.size(); base += window) {
      const auto n = std::min(window, set.set.size() - base);
      for (std::uint8_t ttl = 1; ttl <= 16; ++ttl) {
        for (std::size_t i = 0; i < n; ++i)
          send(net, c, set.set.addrs[base + i], ttl, 1);
        net.advance_us(n * (gap - 1));
      }
    }
    std::printf("%-12s %9.0f%% %10zu %10llu\n", "ttl-burst",
                100 * hop1(c, set.set.size()), c.interfaces().size(),
                static_cast<unsigned long long>(net.stats().rate_limited));
  }
  bench::rule();
  std::printf(
      "Expected shape: 'full' keeps hop-1 responsiveness near 100%%. 'ttl-seq'"
      " (random targets, sequential TTLs,\nuniformly paced) also survives —"
      " pacing is uniform so near hops see 1/16 of the rate. 'ttl-burst'\n"
      "(synchronized rounds at line rate) collapses: burstiness, not target"
      " order, is what trips RFC 4443 limiters,\nand yarrp6's joint"
      " randomization removes it by construction.\n");
  return 0;
}
