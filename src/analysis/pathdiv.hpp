// analysis/pathdiv.hpp — subnet discovery from trace results (paper §6).
//
// Two techniques:
//
//  1. Path-divergence discovery (discoverByPathDiv, after Lee et al.'s
//     Hobbit adapted to IPv6): compare traced paths to pairs of targets;
//     when the paths share a significant "last common subpath" (LCS) and
//     then diverge into significant "divergent suffixes" (DS), the two
//     targets are taken to lie in different subnets, and their
//     Discriminating Prefix Length becomes a *lower bound* on both subnets'
//     prefix lengths. The acceptance rules are parameterized exactly as in
//     the paper (c, C, A, s, S, z, T).
//
//  2. The "Identity Association (IA) Hack": a last hop whose address is the
//     ::1 of the *target's own /64* is taken to be the target LAN's
//     gateway, pinning an exact /64 subnet.
//
// Results are "candidate" subnets: prefix-length lower bounds, validated
// against simnet ground truth by analysis/validate.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "netbase/ipv6.hpp"
#include "netbase/prefix.hpp"
#include "simnet/topology.hpp"
#include "topology/collector.hpp"

namespace beholder6::analysis {

/// The settable part of the paper's §6 rules, defaults as published. The
/// rest hold at their published values in discover_by_path_div: C = 1 and
/// S = 1 target-ASN hops in the LCS and in each DS, no gaps inside the
/// LCS, A (last hops outside the vantage ASN), z = 0 (no empty DS) and T
/// (both targets in one ASN).
struct PathDivParams {
  unsigned min_lcs_len = 2;        // c: LCS must have at least this many hops
  unsigned min_ds_len = 1;         // s: each divergent suffix length

  // §6 complications the paper works around by augmenting BGP data:
  //
  // (a) Networks that "use many ASNs simultaneously, e.g., one originating
  //     routes to the BGP prefix(es) covering router addresses and another
  //     originating routes for the prefix(es) covering their customer's
  //     (target) addresses". Such ASNs are declared equivalent: every ASN
  //     in the map compares equal to its canonical representative.
  std::map<simnet::Asn, simnet::Asn> equivalent_asns;
  //
  // (b) Router addresses "not covered in the BGP" because networks need not
  //     globally announce infrastructure space. These RIR-registered (but
  //     unannounced) prefixes are consulted when the BGP origin lookup
  //     fails, longest match first.
  std::vector<std::pair<Prefix, simnet::Asn>> rir_prefixes;

  /// Canonical form of an ASN under the equivalence map.
  [[nodiscard]] simnet::Asn canonical(simnet::Asn asn) const {
    const auto it = equivalent_asns.find(asn);
    return it == equivalent_asns.end() ? asn : it->second;
  }
};

/// One discovered candidate subnet: the prefix-length lower bound for the
/// subnet containing `target`.
struct CandidateSubnet {
  Ipv6Addr target;
  unsigned min_prefix_len = 0;
  bool via_ia_hack = false;

  [[nodiscard]] Prefix prefix() const { return Prefix{target, min_prefix_len}; }
};

struct PathDivResult {
  std::vector<CandidateSubnet> candidates;
  std::size_t pairs_examined = 0;
  std::size_t pairs_divergent = 0;
  std::size_t ia_hack_count = 0;

  /// Distinct candidate prefixes (the unit Figure 8 counts).
  [[nodiscard]] std::set<Prefix> distinct_prefixes() const {
    std::set<Prefix> out;
    for (const auto& c : candidates) out.insert(c.prefix());
    return out;
  }
};

/// Run path-divergence + IA-hack discovery over a campaign's traces.
/// Adjacent targets (in sorted address order) are compared pairwise — the
/// highest-DPL pairings, which set the tightest lower bounds.
[[nodiscard]] PathDivResult discover_by_path_div(
    const beholder6::topology::TraceCollector& collector,
    const simnet::Topology& topo, const simnet::VantageInfo& vantage,
    const PathDivParams& params = {});

/// The IA hack alone: /64 candidates from ::1-in-target-/64 last hops.
[[nodiscard]] std::vector<CandidateSubnet> ia_hack(
    const beholder6::topology::TraceCollector& collector);

/// Histogram of candidate min-prefix-lengths (Figure 8b rows): index =
/// prefix length 0..64.
[[nodiscard]] std::vector<std::size_t> length_histogram(
    const std::set<Prefix>& prefixes);

}  // namespace beholder6::analysis
