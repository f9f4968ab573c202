// simnet/topology.hpp — deterministic synthetic IPv6 Internet ground truth.
//
// The Topology is a pure function of its parameters (notably a 64-bit seed):
// every question about the synthetic Internet — which ASes exist, what they
// announce into BGP, which subnets and hosts exist inside them, what the
// router-level path from a vantage to any address is — is answered by keyed
// hashing, so the full Internet never has to be materialized. The same
// oracles drive packet forwarding (simnet::Network), seed-list generation
// (seeds::*) and validation against ground truth (analysis::*), which keeps
// all three consistent by construction.
//
// Address plan (AS index i, primary /32 prefix 2001:pppp::/32):
//   bits  0..31   AS /32                 (0x20010100 + i)
//   bits 32..39   region                 (0xff reserved for infrastructure)
//   bits 40..47   PoP        -> /48
//   bits 48..55   aggregation-> /56      (only in ASes that use this level)
//   bits 56..63   subnet     -> /64
//   bits 64..127  interface identifier
// ASes may additionally announce extra /48s under 2610::/16 (provider-
// aggregatable space) so the BGP table has more prefixes than ASNs, and one
// transit AS announces the 6to4 relay prefix 2002::/16.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "netbase/attr.hpp"
#include "netbase/eui64.hpp"
#include "netbase/ipv6.hpp"
#include "netbase/prefix.hpp"
#include "netbase/radix_trie.hpp"
#include "netbase/rng.hpp"

namespace beholder6::simnet {

using Asn = std::uint32_t;

/// Categories of autonomous systems with distinct provisioning behaviour.
enum class AsType : std::uint8_t {
  kTier1,       // backbone: many peers, infrastructure addresses only
  kTransit,     // regional transit
  kEyeballIsp,  // residential broadband: CPE routers, WWW client activity
  kContent,     // hosting / CDN: many servers, lowbyte & EUI-64 server IIDs
  kUniversity,  // campus: departmental subnetting, rDNS population
  kSmallEdge,   // small enterprise: single PoP, few subnets
};

/// How an AS numbers the last-hop gateway of a customer/LAN /64.
enum class GatewayConvention : std::uint8_t {
  kLowbyteInTarget64,  // gw = <target /64>::1 — enables the paper's IA hack
  kEui64CpeInTarget64, // gw = <target /64>:<EUI-64 of CPE> — eyeball ISPs
  kInfraBlock,         // gw numbered from a separate infrastructure /64
};

/// How an AS treats non-ICMPv6 probe transports at its border.
enum class TransportPolicy : std::uint8_t {
  kAllowAll,
  kDropUdpTcp,      // silent drop of UDP and TCP
  kRejectUdpTcp,    // ICMPv6 admin-prohibited for UDP and TCP
};

struct AsInfo {
  Asn asn = 0;
  AsType type = AsType::kSmallEdge;
  std::vector<Prefix> prefixes;    // announced into BGP (primary first)
  std::vector<Asn> neighbors;      // AS-level adjacency
  unsigned regions = 1;            // contiguous region indices [0, regions)
  unsigned pop_density = 32;       // /48 existence density out of 256
  unsigned agg_density = 0;        // /56 existence density (0 = level unused)
  unsigned subnet_density = 64;    // /64 existence density out of 256
  GatewayConvention gateway = GatewayConvention::kLowbyteInTarget64;
  TransportPolicy transport = TransportPolicy::kAllowAll;
  std::uint32_t cpe_oui = 0;       // EUI-64 OUI for CPE gateways (eyeballs)
  double firewall_prob = 0.0;      // per-/48 probability of a border firewall
  double client_activity = 0.0;    // per-/64 probability of WWW activity
};

struct TopologyParams {
  std::uint64_t seed = 1;
  unsigned num_tier1 = 4;
  unsigned num_transit = 10;
  unsigned num_eyeball = 6;     // the first two are "large" deployments
  unsigned num_content = 10;
  unsigned num_university = 8;
  unsigned num_small_edge = 40;
  unsigned extra_prefix_max = 3;  // extra /48 announcements per edge AS
};

/// One hop of a router-level path.
struct Hop {
  Ipv6Addr iface;          // ICMPv6 source address this router answers from
  std::uint64_t router_id; // stable id for rate-limiter state
  unsigned ecmp_width = 1; // number of parallel equal-cost siblings here

  friend bool operator==(const Hop&, const Hop&) = default;
};

/// The least common multiple of every ECMP group width the topology ever
/// constructs (infra_hop builds widths of 1 and 2 only). Each hop resolves
/// its variant as flow_hash % width, so path() is invariant under
/// flow_hash mod this period — the contract Network's route cache keys on.
/// Widening ECMP groups must update this constant (and the route-cache key
/// with it); the oracle property suite cross-checks the invariance.
///
/// Dynamics lean on the same contract from the other side: an ECMP
/// re-convergence event (simnet/dynamics.hpp) adds a bump to the flow hash
/// of affected cells before path() resolves, so adding any odd bump flips
/// every width-2 hop deterministically — a re-hash without new oracle
/// machinery. The bump stays out of the route-cache key on purpose: stale
/// entries are invalidated instead (see Network::resolve_path).
inline constexpr std::uint64_t kEcmpVariantPeriod = 2;

/// Why a path ends where it does — determines the terminal response.
enum class PathEnd : std::uint8_t {
  kDelivered,       // all hops exist; the probe can reach the target /64
  kNoRoute,         // some level of the hierarchy does not exist
  kFirewalled,      // a /48 border firewall rejects probes
  kUnrouted,        // target not covered by any BGP announcement
  kTransportDenied, // AS border policy rejects this transport protocol
};

/// A fully resolved router-level path from a vantage toward a target.
struct Path {
  std::vector<Hop> hops;   // hops[0] is the first router (TTL 1)
  PathEnd end = PathEnd::kDelivered;
  Asn dest_asn = 0;        // 0 if unrouted
  std::uint8_t firewall_code = 1;  // DU code if end == kFirewalled

  friend bool operator==(const Path&, const Path&) = default;
};

/// A live end host in some /64.
struct HostInfo {
  Ipv6Addr addr;
  bool echo_responder = true;      // answers ICMPv6 echo with echo reply
  bool du_port_responder = false;  // CPE-style: answers probes with DU code 4
};

/// Vantage point descriptor. The paper's three vantages differ mainly in
/// on-premise path length (US-EDU-2's longer path lowers its yield).
struct VantageInfo {
  std::string name;
  Asn asn = 0;
  Ipv6Addr src;
  unsigned premise_hops = 3;
};

class Topology {
 public:
  explicit Topology(const TopologyParams& params);
  // Vantages are identified by address (see vantage_index), so a copy's
  // vantages() would be foreign to the original and vice versa.
  Topology(const Topology&) = delete;
  Topology& operator=(const Topology&) = delete;

  [[nodiscard]] const TopologyParams& params() const { return params_; }
  [[nodiscard]] const std::vector<AsInfo>& ases() const { return ases_; }
  [[nodiscard]] const AsInfo* as(Asn asn) const;
  [[nodiscard]] const RadixTrie<Asn>& bgp() const { return bgp_; }
  [[nodiscard]] const std::vector<VantageInfo>& vantages() const { return vantages_; }
  [[nodiscard]] const VantageInfo* vantage_by_src(const Ipv6Addr& src) const;
  /// Position of `v` in vantages(), or nullopt if `v` is not an element of
  /// it. Identity is by address, not value: a copy of a vantage, even an
  /// unaltered one, is foreign. Route-cache keys and path_into's
  /// precomputed chains both index vantages through this.
  [[nodiscard]] std::optional<std::size_t> vantage_index(const VantageInfo& v) const {
    const std::less<const VantageInfo*> before;  // total order across objects
    const VantageInfo* first = vantages_.data();
    if (before(&v, first) || !before(&v, first + vantages_.size())) return std::nullopt;
    return static_cast<std::size_t>(&v - first);
  }

  /// BGP origin lookup (longest prefix match), nullopt if unrouted.
  [[nodiscard]] std::optional<Asn> origin(const Ipv6Addr& a) const;

  // ---- Existence oracles (pure functions of the seed) ----

  /// Does the /48 PoP containing `a` exist (given its region exists)?
  [[nodiscard]] bool pop_exists(const AsInfo& as, const Ipv6Addr& a) const;
  /// Does the /56 aggregation level exist for `a` (ASes with agg_density>0)?
  [[nodiscard]] bool agg_exists(const AsInfo& as, const Ipv6Addr& a) const;
  /// Does the /64 subnet containing `a` exist?
  [[nodiscard]] bool subnet_exists(const AsInfo& as, const Ipv6Addr& a) const;
  /// The most specific *existing* ground-truth subnet containing `a`
  /// (one of /48, /56, /64), or nullopt if even the /48 does not exist.
  [[nodiscard]] std::optional<Prefix> true_subnet(const Ipv6Addr& a) const;
  /// Is there a firewall at the /48 containing `a`?
  [[nodiscard]] bool firewalled(const AsInfo& as, const Ipv6Addr& a) const;
  /// Does this existing /64 have WWW client activity (CDN seed oracle)?
  [[nodiscard]] bool client_active(const AsInfo& as, const Prefix& slash64) const;

  /// Live hosts within an existing /64 (deterministic, at most 8).
  [[nodiscard]] std::vector<HostInfo> hosts_in(const AsInfo& as, const Prefix& slash64) const;
  /// Liveness + response style of one concrete address (nullopt = no host).
  /// Allocation-free: sits on the steady-state inject path for every
  /// delivered probe.
  [[nodiscard]] std::optional<HostInfo> host_at(const Ipv6Addr& a) const;
  /// host_at with the originating AS already known (e.g. from a cached
  /// route's dest_asn), skipping the per-probe BGP longest-prefix walk.
  [[nodiscard]] std::optional<HostInfo> host_at(const AsInfo& as,
                                                const Ipv6Addr& a) const;
  /// Gateway interface address of an existing /64 (depends on convention).
  [[nodiscard]] Ipv6Addr gateway_iface(const AsInfo& as, const Prefix& slash64) const;

  // ---- Enumeration (for seed generation & validation) ----

  /// Deterministically enumerate up to `max` existing /64 subnets of an AS.
  [[nodiscard]] std::vector<Prefix> enumerate_subnets(const AsInfo& as, std::size_t max) const;

  // ---- Path oracle ----

  /// Router-level path from a vantage toward `target` for a given flow hash
  /// (the flow hash resolves ECMP choices). The result is a pure function
  /// of (vantage, target's upper 64 bits, flow_hash % kEcmpVariantPeriod,
  /// proto): every existence/firewall/gateway oracle consulted here reads
  /// only the /64 cell, and ECMP variants repeat with the period. That
  /// four-tuple is the complete key Network's route cache memoizes on
  /// (asserted by tests/simnet/route_cache_test.cpp). Allocating
  /// convenience over path_into().
  [[nodiscard]] Path path(const VantageInfo& vantage, const Ipv6Addr& target,
                          std::uint64_t flow_hash, std::uint8_t proto) const;

  /// path() into caller-owned storage: `out` is overwritten whole and its
  /// hop capacity reused, so a warm scratch Path makes this
  /// allocation-free. For an element of vantages(), the hops up to and
  /// including the destination border come from a chain precomputed at
  /// construction (they depend only on the vantage, the destination AS and
  /// flow_hash % kEcmpVariantPeriod); only the per-target descent is
  /// computed per call. Any other VantageInfo (say, a copy with different
  /// premise_hops) is resolved directly from the AS graph. Takes no lock:
  /// the Topology is immutable after construction.
  void path_into(const VantageInfo& vantage, const Ipv6Addr& target,
                 std::uint64_t flow_hash, std::uint8_t proto, Path& out) const;

  /// AS-level path (BFS shortest, deterministic tie-break), including both
  /// endpoints. Empty if disconnected (the constructor rejects worlds
  /// where a vantage cannot reach some AS).
  [[nodiscard]] std::vector<Asn> as_path(Asn from, Asn to) const;

 private:
  [[nodiscard]] std::uint64_t h(std::uint64_t a, std::uint64_t b = 0,
                                std::uint64_t c = 0, std::uint64_t d = 0) const {
    return splitmix64(params_.seed ^ splitmix64(a ^ splitmix64(b ^ splitmix64(c ^ d * 0x9e37ULL))));
  }

  /// One infrastructure router hop. `ingress` selects which of the router's
  /// interfaces answers (routers source ICMPv6 errors from the interface
  /// facing the packet's arrival direction), so the same router exposes
  /// different addresses to paths entering from different neighbour ASes —
  /// the aliases that speedtrap-style resolution recovers. The router
  /// identity (rate-limiter and fragment-id state) is ingress-independent.
  [[nodiscard]] Hop infra_hop(const AsInfo& as, unsigned chain, unsigned idx,
                              unsigned variant, unsigned width,
                              std::uint64_t ingress) const;
  /// The j-th deterministic host of the /64 whose base has high half `key`
  /// (shared by hosts_in and the allocation-free host_at).
  [[nodiscard]] HostInfo host_j(const AsInfo& as, std::uint64_t key, unsigned j) const;
  void build_ases();
  void build_graph();
  void build_route_chains();

  /// BFS parent links over adj_ from AS index `src`: parent[src] == src,
  /// -1 marks an unreachable AS.
  [[nodiscard]] std::vector<std::int32_t> bfs_tree(std::uint32_t src) const;
  /// The AS a vantage's unrouted probes die at: the next AS toward tier-1
  /// AS 0. Throws std::invalid_argument if there is none.
  [[nodiscard]] Asn upstream_of(Asn vantage_asn) const;
  /// The vantage's premise chain and border router, which start every path.
  void append_premise(const VantageInfo& vantage, std::vector<Hop>& hops) const;
  /// Target-independent head of a routed path: premise, inter-AS core
  /// (ECMP resolved by flow_hash) and destination border. `asp` is the AS
  /// path from the vantage to the destination.
  void append_route_chain(const VantageInfo& vantage, std::span<const Asn> asp,
                          std::uint64_t flow_hash, std::vector<Hop>& hops) const;
  /// Head of an unrouted path: premise and the upstream core router.
  void append_unrouted_chain(const VantageInfo& vantage,
                             std::vector<Hop>& hops) const;
  /// Everything after the head: origin ASN, transport policy, the
  /// per-target region/PoP/aggregation/gateway descent and the end state.
  void finish_path(std::optional<Asn> dest_asn, const Ipv6Addr& target,
                   std::uint8_t proto, Path& out) const;
  /// path_into for a VantageInfo that is not an element of vantages().
  B6_COLDPATH void direct_path_into(const VantageInfo& vantage,
                                    const Ipv6Addr& target,
                                    std::uint64_t flow_hash, std::uint8_t proto,
                                    Path& out) const;

  /// A precomputed hop chain: chain_hops_[offset, offset + len).
  struct ChainRef {
    std::uint32_t offset = 0;
    std::uint32_t len = 0;
  };

  TopologyParams params_;
  std::vector<AsInfo> ases_;
  RadixTrie<Asn> bgp_;
  std::vector<VantageInfo> vantages_;
  std::vector<std::vector<std::uint32_t>> adj_;  // index-based adjacency
  // Built once in the constructor and read-only afterwards, so any number
  // of threads resolve paths concurrently without a lock.
  std::vector<Hop> chain_hops_;  // every chain's hops
  // Routed chains, indexed (vantage * ases + dest index) * period + variant.
  std::vector<ChainRef> route_chains_;
  std::vector<ChainRef> unrouted_chains_;  // one per vantage
};

}  // namespace beholder6::simnet
