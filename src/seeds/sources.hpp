// seeds/sources.hpp — generative models of the paper's seven seed sources
// plus the routed-random control (paper §3.2, Table 1).
//
// The paper's seed lists are proprietary or ephemeral datasets. Each
// generator here samples the simnet ground truth with the documented bias
// of its real counterpart, so every downstream experiment (DPL shape,
// breadth vs depth, discovery power, EUI-64 concentration) sees the same
// statistical structure the paper saw:
//
//   caida    — ::1 plus one random address per BGP-announced prefix of
//              length <= 48 (breadth, no depth)
//   fiebig   — reverse-DNS zone walking: dense runs of consecutive /64s in
//              rDNS-maintaining networks; roughly half under prefixes that
//              are not announced in BGP (registered but unrouted space)
//   fdns_any — forward-DNS ANY answers: server addresses in content and
//              university networks, some 6to4, lowbyte-heavy
//   dnsdb    — passive DNS: fewer addresses but the broadest ASN coverage,
//              including small edge ASes nothing else sees
//   cdn      — kIP-anonymized aggregates of active WWW client /64s in
//              eyeball ISPs (k=32 and k=256); prefixes, not addresses
//   6gen     — 6Gen-style loose-cluster expansion of an input hitlist
//   tum      — a union collection (includes fdns_any, parts of caida,
//              certificate-transparency-style hosts, traceroute targets)
//   random   — uniformly random addresses in BGP-routed space (control)
#pragma once

#include <cstdint>

#include "netbase/rng.hpp"
#include "simnet/topology.hpp"
#include "target/seedlist.hpp"
#include "target/transform.hpp"

namespace beholder6::seeds {

/// Per-source sizes at scale 1. The paper's lists range from 105k (caida)
/// to 26.5M (random); these keep their ratios at bench scale.
inline constexpr std::size_t kCaidaRandomPerPrefix = 1;
inline constexpr std::size_t kFiebigRunLen = 24;  // /64s per rDNS run
inline constexpr std::size_t kFdnsHosts = 12000;
inline constexpr std::size_t kDnsdbHosts = 5000;
inline constexpr std::size_t kCdnClient64s = 240000;  // scanned for activity
inline constexpr std::size_t kSixgenOut = 9000;
inline constexpr std::size_t kTumExtra = 4000;
inline constexpr std::size_t kRandomTargets = 26000;

/// Scale factor over the sizes above (kCaidaRandomPerPrefix and
/// kFiebigRunLen are per-prefix and per-run shapes, not scaled).
struct SeedScale {
  double scale = 1.0;
};

using target::SeedList;

[[nodiscard]] SeedList make_caida(const simnet::Topology& topo, const SeedScale& sc,
                                  std::uint64_t seed);
[[nodiscard]] SeedList make_fiebig(const simnet::Topology& topo, const SeedScale& sc,
                                   std::uint64_t seed);
[[nodiscard]] SeedList make_fdns_any(const simnet::Topology& topo, const SeedScale& sc,
                                     std::uint64_t seed);
[[nodiscard]] SeedList make_dnsdb(const simnet::Topology& topo, const SeedScale& sc,
                                  std::uint64_t seed);
/// CDN client prefixes after kIP aggregation with the given k (32 or 256).
[[nodiscard]] SeedList make_cdn(const simnet::Topology& topo, const SeedScale& sc,
                                unsigned k, std::uint64_t seed);
/// 6Gen loose mode over an input hitlist (defaults to caida ∪ some hosts).
[[nodiscard]] SeedList make_6gen(const simnet::Topology& topo, const SeedScale& sc,
                                 std::uint64_t seed);
[[nodiscard]] SeedList make_tum(const simnet::Topology& topo, const SeedScale& sc,
                                std::uint64_t seed);
[[nodiscard]] SeedList make_random(const simnet::Topology& topo, const SeedScale& sc,
                                   std::uint64_t seed);

/// All eight standard lists in the paper's order (cdn appears twice: k256
/// and k32).
[[nodiscard]] std::vector<SeedList> make_all(const simnet::Topology& topo,
                                             const SeedScale& sc, std::uint64_t seed);

}  // namespace beholder6::seeds
