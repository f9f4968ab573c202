#include "seeds/sources.hpp"

#include <algorithm>
#include <map>

namespace beholder6::seeds {

namespace {

using simnet::AsInfo;
using simnet::AsType;
using simnet::Topology;

std::size_t scaled(const SeedScale& sc, std::size_t n) {
  return static_cast<std::size_t>(static_cast<double>(n) * sc.scale);
}

void push_addr(SeedList& list, const Ipv6Addr& a) {
  list.entries.emplace_back(a, 128);
}

/// Random address inside a prefix.
Ipv6Addr random_in(const Prefix& p, Rng& rng) {
  const auto r = Ipv6Addr::from_halves(rng(), rng());
  Ipv6Addr suffix;
  for (unsigned b = p.len(); b < 128; ++b) suffix = suffix.with_bit(b, r.bit(b));
  return p.base() | suffix;
}

}  // namespace

SeedList make_caida(const Topology& topo, const SeedScale& /*sc*/,
                    std::uint64_t seed) {
  // BGP-derived: every announced prefix of length <= 48 contributes its ::1
  // address plus random in-prefix addresses (Ark probes both).
  SeedList list;
  list.name = "caida";
  Rng rng{splitmix64(seed ^ 0xca1da)};
  topo.bgp().for_each([&](const Prefix& p, const simnet::Asn&) {
    if (p.len() > 48) return;
    push_addr(list, p.base() | Ipv6Addr::from_halves(0, 1));
    for (std::size_t i = 0; i < kCaidaRandomPerPrefix; ++i)
      push_addr(list, random_in(p, rng));
  });
  return list;
}

SeedList make_fiebig(const Topology& topo, const SeedScale& sc, std::uint64_t seed) {
  // Reverse-DNS zone walking: networks that maintain ip6.arpa expose dense
  // runs of consecutive /64s with sequential lowbyte numbering. Roughly half
  // the walked space is registered in an RIR but not announced in BGP
  // (the paper finds only ~58% of fiebig z64 targets routed).
  SeedList list;
  list.name = "fiebig";
  Rng rng{splitmix64(seed ^ 0xf1eb16)};
  unsigned uni_idx = 0;
  for (const auto& as : topo.ases()) {
    if (as.type != AsType::kUniversity &&
        !(as.type == AsType::kContent && splitmix64(as.asn) % 3 == 0))
      continue;
    const auto subnets = topo.enumerate_subnets(as, scaled(sc, 18));
    for (const auto& s : subnets) {
      // A zone walk reveals a run of consecutive /64s from this base. For
      // /64s that really exist, the zone holds PTR records of the *actual*
      // hosts (plus the gateway) — which is what makes fiebig-known probing
      // reach live machines (Table 4's port-unreachable signature). /64s
      // that fell out of use leave stale sequential entries behind.
      const auto run = 2 + rng.below(kFiebigRunLen);
      for (std::uint64_t r = 0; r < run; ++r) {
        const auto hi = s.base().hi() + r;
        const auto probe64 = Ipv6Addr::from_halves(hi, 0);
        if (topo.subnet_exists(as, probe64)) {
          push_addr(list, topo.gateway_iface(as, Prefix{probe64, 64}));
          for (const auto& host : topo.hosts_in(as, Prefix{probe64, 64}))
            push_addr(list, host.addr);
        } else {
          const auto n = 1 + rng.below(3);
          for (std::uint64_t j = 0; j < n; ++j)
            push_addr(list, Ipv6Addr::from_halves(hi, j + 1));  // stale
        }
      }
    }
    // The matching unrouted rDNS space (registered, never announced).
    const auto unrouted_hi = (0x2a10'0000ULL + uni_idx++) << 32;
    const auto runs = scaled(sc, 14);
    for (std::size_t q = 0; q < runs; ++q) {
      const auto base = unrouted_hi | (rng.below(200) << 16) | (rng.below(64) << 8);
      const auto run = 2 + rng.below(kFiebigRunLen);
      for (std::uint64_t r = 0; r < run; ++r)
        for (std::uint64_t j = 1; j <= 2; ++j)
          push_addr(list, Ipv6Addr::from_halves(base + r, j));
    }
  }
  return list;
}

SeedList make_fdns_any(const Topology& topo, const SeedScale& sc, std::uint64_t seed) {
  // Forward-DNS ANY answers: server farms in content and university
  // networks, with a tail of 6to4 oddities.
  SeedList list;
  list.name = "fdns_any";
  Rng rng{splitmix64(seed ^ 0xfd45)};
  const auto cap = scaled(sc, kFdnsHosts);
  for (const auto& as : topo.ases()) {
    if (list.entries.size() >= cap) break;
    if (as.type != AsType::kContent && as.type != AsType::kUniversity) continue;
    for (const auto& s : topo.enumerate_subnets(as, scaled(sc, 120))) {
      for (const auto& host : topo.hosts_in(as, s)) push_addr(list, host.addr);
      if (rng.chance(0.5))
        push_addr(list, Ipv6Addr::from_halves(s.base().hi(), 1));  // www ::1
      if (list.entries.size() >= cap) break;
    }
  }
  // 6to4: embedded-IPv4 servers that leak into forward DNS.
  const auto n6to4 = std::max<std::size_t>(1, cap / 24);
  for (std::size_t i = 0; i < n6to4; ++i) {
    const auto v4 = rng() & 0xffffffff;
    push_addr(list, Ipv6Addr::from_halves((0x2002ULL << 48) | (v4 << 16), 1));
  }
  return list;
}

SeedList make_dnsdb(const Topology& topo, const SeedScale& sc, std::uint64_t seed) {
  // Passive DNS: fewer addresses, but it observes *every* network whose
  // clients resolve names — the broadest ASN coverage of any list.
  SeedList list;
  list.name = "dnsdb";
  Rng rng{splitmix64(seed ^ 0xd45db)};
  const auto per_as = std::max<std::size_t>(2, scaled(sc, kDnsdbHosts) /
                                                   std::max<std::size_t>(1, topo.ases().size()));
  for (const auto& as : topo.ases()) {
    if (as.type == AsType::kTier1) continue;
    std::size_t got = 0;
    for (const auto& s : topo.enumerate_subnets(as, scaled(sc, 40))) {
      for (const auto& host : topo.hosts_in(as, s)) {
        if (got >= per_as) break;
        if (rng.chance(0.6)) {
          push_addr(list, host.addr);
          ++got;
        }
      }
      if (got >= per_as) break;
    }
    // Passive DNS also sees names for gateway ::1s (NS glue etc.).
    if (!topo.enumerate_subnets(as, 1).empty() && rng.chance(0.5))
      push_addr(list,
                Ipv6Addr::from_halves(topo.enumerate_subnets(as, 1)[0].base().hi(), 1));
  }
  return list;
}

SeedList make_cdn(const Topology& topo, const SeedScale& sc, unsigned k,
                  std::uint64_t seed) {
  // Active WWW client /64s observed by a CDN, anonymized with kIP before
  // release. Entries are *prefixes* of varying length.
  target::KipAggregator agg{k};
  (void)seed;  // the active-client set is ground truth, not sampled
  const std::size_t budget = scaled(sc, kCdnClient64s);
  for (const auto& as : topo.ases()) {
    if (as.type != AsType::kEyeballIsp) continue;
    if (agg.distinct_64s() >= budget) break;
    for (const auto& s :
         topo.enumerate_subnets(as, budget - agg.distinct_64s())) {
      if (topo.client_active(as, s)) agg.add(s);
    }
  }
  SeedList list;
  list.name = "cdn-k" + std::to_string(k);
  list.entries = agg.aggregate();
  return list;
}

SeedList make_6gen(const Topology& topo, const SeedScale& sc, std::uint64_t seed) {
  // 6Gen loose clustering: group an input hitlist by /48, then generate new
  // addresses inside each cluster by recombining the nybble ranges observed
  // there. Dense clusters receive proportionally more generated targets.
  const auto caida = make_caida(topo, sc, seed);
  auto input = make_fdns_any(topo, sc, splitmix64(seed ^ 1));
  input.entries.insert(input.entries.end(), caida.entries.begin(), caida.entries.end());

  // Ordered map: generation draws from `rng` and stops at `out_budget`
  // inside the cluster loop below, so the visit order is output-shaping —
  // an unordered container here made the list depend on hash-table layout.
  std::map<std::uint64_t, std::vector<Ipv6Addr>> clusters;
  for (const auto& e : input.entries)
    clusters[e.base().masked(48).hi()].push_back(e.base());

  SeedList list;
  list.name = "6gen";
  Rng rng{splitmix64(seed ^ 0x66e4)};
  const auto out_budget = scaled(sc, kSixgenOut);
  for (const auto& [hi48, members] : clusters) {
    if (members.size() < 2) continue;
    // Observed nybble ranges across positions 12..31 (bits 48..128).
    std::uint8_t lo[32], hi[32];
    for (unsigned p = 12; p < 32; ++p) { lo[p] = 15; hi[p] = 0; }
    for (const auto& m : members)
      for (unsigned p = 12; p < 32; ++p) {
        lo[p] = std::min(lo[p], m.nybble(p));
        hi[p] = std::max(hi[p], m.nybble(p));
      }
    const auto quota =
        std::max<std::size_t>(4, out_budget * members.size() / input.entries.size());
    for (std::size_t i = 0; i < quota; ++i) {
      auto a = members[rng.below(members.size())];
      for (unsigned p = 12; p < 32; ++p) {
        // Loose mode: wildcard within [lo, hi] of the observed range.
        const auto span = static_cast<std::uint64_t>(hi[p] - lo[p]) + 1;
        a = a.with_nybble(p, static_cast<std::uint8_t>(lo[p] + rng.below(span)));
      }
      push_addr(list, a);
    }
    if (list.entries.size() >= out_budget) break;
  }
  return list;
}

SeedList make_tum(const Topology& topo, const SeedScale& sc, std::uint64_t seed) {
  // A union collection: fdns_any, part of caida, certificate-transparency
  // style hosts (content + residential dyndns, EUI-64-heavy), traceroute
  // targets (router ::1s), and a 6to4 tail.
  SeedList list;
  list.name = "tum";
  Rng rng{splitmix64(seed ^ 0x70b)};
  const auto fdns = make_fdns_any(topo, sc, seed);  // same snapshot as fdns_any
  list.entries = fdns.entries;
  for (const auto& e : make_caida(topo, sc, seed).entries)
    if (rng.chance(0.5)) list.entries.push_back(e);
  // ct-style: residential and content hosts, skewed toward EUI-64 IIDs.
  std::size_t extra = scaled(sc, kTumExtra);
  for (const auto& as : topo.ases()) {
    if (extra == 0) break;
    if (as.type != AsType::kEyeballIsp && as.type != AsType::kContent) continue;
    for (const auto& s : topo.enumerate_subnets(as, scaled(sc, 60))) {
      if (extra == 0) break;
      if (!rng.chance(as.type == AsType::kEyeballIsp ? 0.45 : 0.25)) continue;
      for (const auto& host : topo.hosts_in(as, s)) {
        const bool keep = is_eui64(host.addr) || rng.chance(0.4);
        if (keep && extra > 0) {
          push_addr(list, host.addr);
          --extra;
        }
      }
    }
  }
  return list;
}

SeedList make_random(const Topology& topo, const SeedScale& sc, std::uint64_t seed) {
  // Control: uniformly random addresses within announced space (random
  // prefix, then random bits below it). Only covering announcements
  // (length <= 48) participate — traffic-engineering more-specifics nest
  // inside them, and sampling them independently would overweight exactly
  // the dense corners an unguided control is not supposed to know about.
  SeedList list;
  list.name = "random";
  Rng rng{splitmix64(seed ^ 0x4a4d)};
  std::vector<Prefix> prefixes;
  topo.bgp().for_each([&](const Prefix& p, const simnet::Asn&) {
    if (p.len() <= 48) prefixes.push_back(p);
  });
  const auto n = scaled(sc, kRandomTargets);
  for (std::size_t i = 0; i < n; ++i)
    push_addr(list, random_in(prefixes[rng.below(prefixes.size())], rng));
  return list;
}

std::vector<SeedList> make_all(const Topology& topo, const SeedScale& sc,
                               std::uint64_t seed) {
  std::vector<SeedList> all;
  all.push_back(make_caida(topo, sc, seed));
  all.push_back(make_dnsdb(topo, sc, seed));
  all.push_back(make_fiebig(topo, sc, seed));
  all.push_back(make_fdns_any(topo, sc, seed));
  all.push_back(make_cdn(topo, sc, 256, seed));
  all.push_back(make_cdn(topo, sc, 32, seed));
  all.push_back(make_6gen(topo, sc, seed));
  all.push_back(make_tum(topo, sc, seed));
  all.push_back(make_random(topo, sc, seed));
  return all;
}

}  // namespace beholder6::seeds
