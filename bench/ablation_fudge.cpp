// ablation_fudge — ablates the yarrp6 checksum-fudge design (Figure 4).
//
// Yarrp6 burns 2 payload bytes to keep the transport checksum constant per
// target, because ICMPv6 checksums feed per-flow ECMP hashes. This bench
// sends per-(target, TTL) repeated probes with (a) the fudge intact and
// (b) the fudge corrupted per probe (checksum varies like a timestamp
// would), and counts how many (target, TTL) slots answer from more than
// one interface — apparent "path instability" that corrupts traces and
// inflates false links.
#include <map>
#include <set>

#include "bench/common.hpp"

using namespace beholder6;

int main() {
  bench::World world;
  const auto set = world.synth("cdn-k32", 64);
  const auto& vantage = world.topo.vantages()[0];

  simnet::NetworkParams np;
  np.unlimited = true;

  for (const bool corrupt : {false, true}) {
    simnet::Network net{world.topo, np};
    std::map<std::pair<Ipv6Addr, unsigned>, std::set<Ipv6Addr>> responders;
    std::uint64_t probes = 0;
    const std::size_t n = std::min<std::size_t>(set.set.size(), 1500);
    for (std::size_t t = 0; t < n; ++t) {
      for (std::uint8_t ttl = 1; ttl <= 12; ++ttl) {
        for (unsigned rep = 0; rep < 3; ++rep) {  // Paris invariant: 3 sends
          wire::ProbeSpec spec;
          spec.src = vantage.src;
          spec.target = set.set.addrs[t];
          spec.ttl = ttl;
          spec.elapsed_us = static_cast<std::uint32_t>(net.now_us());
          auto pkt = wire::encode_probe(spec);
          if (corrupt) {
            // Trash the fudge so the ICMPv6 checksum varies per probe —
            // what would happen without the fudge field.
            pkt[pkt.size() - 1] ^= static_cast<std::uint8_t>(rep + 1);
            wire::finalize_transport_checksum(pkt);
          }
          ++probes;
          for (const auto& r : net.inject_view(pkt)) {
            const auto dec = wire::decode_reply(r, 0);
            if (dec)
              responders[{dec->probe.target, dec->probe.ttl}].insert(dec->responder);
          }
          net.advance_us(1000);
        }
      }
    }
    std::size_t unstable = 0, slots = 0;
    for (const auto& [key, who] : responders) {
      ++slots;
      unstable += who.size() > 1;
    }
    std::printf("%-18s probes=%8llu  (target,ttl) slots=%7zu  unstable=%6zu (%.2f%%)\n",
                corrupt ? "fudge CORRUPTED" : "fudge intact",
                static_cast<unsigned long long>(probes), slots, unstable,
                slots ? 100.0 * static_cast<double>(unstable) / static_cast<double>(slots)
                      : 0.0);
  }
  bench::rule();
  std::printf("Expected shape: with the fudge intact every (target,ttl) sees"
              " exactly one responder (Paris-stable paths);\nwith it corrupted,"
              " ECMP hops answer from multiple interfaces — the trace-corrupting"
              " instability the 2-byte\nfudge exists to prevent.\n");
  return 0;
}
