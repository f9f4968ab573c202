#include "simnet/topology.hpp"

#include <algorithm>
#include <queue>
#include <stdexcept>

namespace beholder6::simnet {

namespace {

constexpr Asn kBaseAsn = 64500;
constexpr std::uint64_t kInfraRegion = 0xffULL;  // region byte reserved for infra
// Per-target hops after the destination border: region, PoP, aggregation,
// gateway.
constexpr std::size_t kMaxTargetHops = 4;
constexpr unsigned kExtraPrefixMax = 3;  // extra /48 announcements per edge AS

/// Primary /32 of AS index i: 2001:(0100+i)::/32.
std::uint64_t primary_hi(unsigned i) { return (0x20010100ULL + i) << 32; }

/// Extra /48 j of AS index i: 2610:(i):(j)::/48.
std::uint64_t extra48_hi(unsigned i, unsigned j) {
  return (0x2610ULL << 48) | (static_cast<std::uint64_t>(i) << 32) |
         (static_cast<std::uint64_t>(j) << 16);
}

/// Manufacturer OUIs for CPE pools: the paper traces 59% of EUI-64 router
/// addresses to just two manufacturers deployed by two ISPs.
constexpr std::uint32_t kCpeOuis[] = {0xa452f0, 0x30b5c2, 0x001cdf, 0x9c3dcf};
constexpr std::uint32_t kServerOuis[] = {0x00155d, 0xd0509b};

struct AddrFields {
  bool in_extra48 = false;
  unsigned region = 0, pop = 0, agg = 0, subnet = 0;
  std::uint32_t extra_idx = 0;  // which extra /48
};

AddrFields fields_of(const Ipv6Addr& a) {
  const auto hi = a.hi();
  AddrFields f;
  if ((hi >> 48) == 0x2610) {
    f.in_extra48 = true;
    f.extra_idx = static_cast<std::uint32_t>((hi >> 16) & 0xffff);
    f.agg = static_cast<unsigned>((hi >> 8) & 0xff);
    f.subnet = static_cast<unsigned>(hi & 0xff);
    return f;
  }
  f.region = static_cast<unsigned>((hi >> 24) & 0xff);
  f.pop = static_cast<unsigned>((hi >> 16) & 0xff);
  f.agg = static_cast<unsigned>((hi >> 8) & 0xff);
  f.subnet = static_cast<unsigned>(hi & 0xff);
  return f;
}

}  // namespace

Topology::Topology(const TopologyParams& params) : params_(params) {
  // build_graph draws every uplink modulo these two counts.
  if (params_.num_tier1 == 0 || params_.num_transit == 0)
    throw std::invalid_argument("Topology: needs a tier-1 and a transit AS");
  build_ases();
  build_graph();
  build_route_chains();
}

void Topology::build_ases() {
  unsigned idx = 0;
  auto add = [&](AsType type) -> AsInfo& {
    AsInfo as;
    as.asn = kBaseAsn + idx;
    as.type = type;
    as.prefixes.emplace_back(Ipv6Addr::from_halves(primary_hi(idx), 0), 32);
    ases_.push_back(std::move(as));
    ++idx;
    return ases_.back();
  };

  for (unsigned i = 0; i < params_.num_tier1; ++i) {
    auto& as = add(AsType::kTier1);
    as.regions = 2;
    as.pop_density = 8;
    as.subnet_density = 16;
    as.gateway = GatewayConvention::kInfraBlock;
  }
  for (unsigned i = 0; i < params_.num_transit; ++i) {
    auto& as = add(AsType::kTransit);
    as.regions = 4;
    as.pop_density = 16;
    as.subnet_density = 32;
    as.gateway = GatewayConvention::kInfraBlock;
    as.firewall_prob = 0.05;
  }
  // The 6to4 relay prefix is announced by the first transit AS.
  ases_[params_.num_tier1].prefixes.emplace_back(
      Ipv6Addr::from_halves(0x2002ULL << 48, 0), 16);

  for (unsigned i = 0; i < params_.num_eyeball; ++i) {
    auto& as = add(AsType::kEyeballIsp);
    const bool large = i < 2;  // two dominant deployments, as in the paper
    as.regions = large ? 16 : 6;
    as.pop_density = large ? 96 : 40;
    as.agg_density = large ? 160 : 96;  // customers aggregate at /56
    as.subnet_density = large ? 224 : 128;
    as.gateway = GatewayConvention::kEui64CpeInTarget64;
    as.cpe_oui = kCpeOuis[large ? i : 2 + i % 2];
    as.client_activity = large ? 0.55 : 0.35;
    as.firewall_prob = 0.02;
  }
  for (unsigned i = 0; i < params_.num_content; ++i) {
    auto& as = add(AsType::kContent);
    as.regions = 4;
    as.pop_density = 48;
    as.agg_density = (h(as.asn, 0xa66) % 2) ? 112 : 0;
    as.subnet_density = 128;
    as.gateway = (h(as.asn, 0x6c) % 3 == 0) ? GatewayConvention::kLowbyteInTarget64
                                            : GatewayConvention::kInfraBlock;
    as.firewall_prob = 0.15;
    as.transport = (h(as.asn, 0x7f) % 5 == 0) ? TransportPolicy::kRejectUdpTcp
                                              : TransportPolicy::kAllowAll;
  }
  for (unsigned i = 0; i < params_.num_university; ++i) {
    auto& as = add(AsType::kUniversity);
    as.regions = 2;
    as.pop_density = 64;
    as.agg_density = 128;  // departmental /56 subnetting
    as.subnet_density = 96;
    as.gateway = GatewayConvention::kLowbyteInTarget64;  // IA-hack friendly
    as.firewall_prob = 0.10;
  }
  for (unsigned i = 0; i < params_.num_small_edge; ++i) {
    auto& as = add(AsType::kSmallEdge);
    as.regions = 1;
    as.pop_density = 16;
    as.subnet_density = 48;
    as.gateway = (h(as.asn, 0x5e) % 2) ? GatewayConvention::kLowbyteInTarget64
                                       : GatewayConvention::kInfraBlock;
    as.firewall_prob = 0.20;
    const auto t = h(as.asn, 0x1f) % 10;
    as.transport = t < 2   ? TransportPolicy::kDropUdpTcp
                   : t < 3 ? TransportPolicy::kRejectUdpTcp
                           : TransportPolicy::kAllowAll;
  }

  // Extra /48 announcements for edge ASes (more BGP prefixes than ASNs).
  for (unsigned i = 0; i < ases_.size(); ++i) {
    auto& as = ases_[i];
    if (as.type == AsType::kTier1 || as.type == AsType::kTransit) continue;
    const unsigned extra =
        static_cast<unsigned>(h(as.asn, 0xe7) % (kExtraPrefixMax + 1));
    for (unsigned j = 0; j < extra; ++j)
      as.prefixes.emplace_back(Ipv6Addr::from_halves(extra48_hi(i, j), 0), 48);
  }

  // More-specific /56 announcements (traffic engineering) for some edge
  // ASes. BGP-derived target selection (caida) only seeds prefixes of
  // length <= 48, so these more-specifics are the BGP features that only
  // the host-derived seed sources can contribute exclusively — the paper's
  // Figure 2 inset effect.
  for (auto& as : ases_) {
    if (as.type != AsType::kEyeballIsp && as.type != AsType::kContent) continue;
    if (h(as.asn, 0x56) % 2) continue;
    std::vector<Prefix> all56;
    for (const auto& s : enumerate_subnets(as, 160)) {
      const Prefix p56{s.base(), 56};
      if (std::find(all56.begin(), all56.end(), p56) == all56.end())
        all56.push_back(p56);
    }
    // Scatter the picks across the AS rather than taking the first (and
    // most universally sampled) corner of its address plan.
    for (unsigned j = 0; j < 3 && !all56.empty(); ++j) {
      const auto pick = all56.begin() +
                        static_cast<std::ptrdiff_t>(h(as.asn, 0x57e, j) % all56.size());
      as.prefixes.push_back(*pick);
      all56.erase(pick);
    }
  }

  for (const auto& as : ases_)
    for (const auto& p : as.prefixes) bgp_.insert(p, as.asn);

  // Vantages: two universities and one EU edge network. US-EDU-2's longer
  // on-premise path reproduces the paper's lower yield from that vantage.
  const unsigned uni0 =
      params_.num_tier1 + params_.num_transit + params_.num_eyeball + params_.num_content;
  const unsigned edge0 = uni0 + params_.num_university;
  auto vantage_src = [&](unsigned as_idx) {
    return Ipv6Addr::from_halves(
        primary_hi(as_idx) | (kInfraRegion << 24) | (0xeULL << 20), 0x100);
  };
  vantages_.push_back({"US-EDU-1", kBaseAsn + uni0, vantage_src(uni0), 3});
  vantages_.push_back({"US-EDU-2", kBaseAsn + uni0 + 1, vantage_src(uni0 + 1), 7});
  vantages_.push_back({"EU-NET", kBaseAsn + edge0, vantage_src(edge0), 2});
}

void Topology::build_graph() {
  adj_.assign(ases_.size(), {});
  auto connect = [&](unsigned a, unsigned b) {
    if (a == b) return;
    adj_[a].push_back(b);
    adj_[b].push_back(a);
  };
  const unsigned t1 = params_.num_tier1;
  const unsigned tr0 = t1, tr_end = t1 + params_.num_transit;
  // Tier-1 full mesh.
  for (unsigned a = 0; a < t1; ++a)
    for (unsigned b = a + 1; b < t1; ++b) connect(a, b);
  // Transit: two tier-1 uplinks plus occasional lateral peering.
  for (unsigned t = tr0; t < tr_end; ++t) {
    connect(t, static_cast<unsigned>(h(t, 0x11) % t1));
    connect(t, static_cast<unsigned>(h(t, 0x22) % t1));
    if (h(t, 0x33) % 3 == 0 && t + 1 < tr_end) connect(t, t + 1);
  }
  // Edges: one or two transit uplinks.
  for (unsigned e = tr_end; e < ases_.size(); ++e) {
    connect(e, tr0 + static_cast<unsigned>(h(e, 0x44) % params_.num_transit));
    if (h(e, 0x55) % 2 == 0)
      connect(e, tr0 + static_cast<unsigned>(h(e, 0x66) % params_.num_transit));
  }
  for (auto& v : adj_) {
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
  }
}

const AsInfo* Topology::as(Asn asn) const {
  const auto i = static_cast<std::size_t>(asn - kBaseAsn);
  return i < ases_.size() ? &ases_[i] : nullptr;
}

const VantageInfo* Topology::vantage_by_src(const Ipv6Addr& src) const {
  for (const auto& v : vantages_)
    if (v.src == src) return &v;
  return nullptr;
}

std::optional<Asn> Topology::origin(const Ipv6Addr& a) const {
  const auto m = bgp_.lpm(a);
  if (!m) return std::nullopt;
  return *m->second;
}

bool Topology::pop_exists(const AsInfo& as, const Ipv6Addr& a) const {
  const auto f = fields_of(a);
  if (f.in_extra48) return true;  // an announced /48 is an existing PoP
  if (f.region >= as.regions || f.region == kInfraRegion) return false;
  return h(as.asn, 0x909, f.region, f.pop) % 256 < as.pop_density;
}

bool Topology::agg_exists(const AsInfo& as, const Ipv6Addr& a) const {
  if (as.agg_density == 0) return true;  // level unused: transparent
  const auto f = fields_of(a);
  return h(as.asn, 0xa11, (static_cast<std::uint64_t>(f.region) << 16) |
                              (f.pop << 8) | f.agg,
           f.in_extra48 ? f.extra_idx + 1 : 0) %
             256 <
         as.agg_density;
}

bool Topology::subnet_exists(const AsInfo& as, const Ipv6Addr& a) const {
  if (!pop_exists(as, a) || !agg_exists(as, a)) return false;
  const auto p64 = a.masked(64);
  return h(as.asn, 0x5b1, p64.hi(), 0) % 256 < as.subnet_density;
}

std::optional<Prefix> Topology::true_subnet(const Ipv6Addr& a) const {
  const auto asn = origin(a);
  if (!asn) return std::nullopt;
  const auto* as_info = as(*asn);
  if (!as_info || !pop_exists(*as_info, a)) return std::nullopt;
  if (subnet_exists(*as_info, a)) return Prefix{a, 64};
  if (as_info->agg_density != 0 && agg_exists(*as_info, a)) return Prefix{a, 56};
  return Prefix{a, 48};
}

bool Topology::firewalled(const AsInfo& as, const Ipv6Addr& a) const {
  const auto p48 = a.masked(48);
  return h(as.asn, 0xf1fe, p48.hi(), 0) % 1000 <
         static_cast<std::uint64_t>(as.firewall_prob * 1000);
}

bool Topology::client_active(const AsInfo& as, const Prefix& slash64) const {
  return h(as.asn, 0xc11e, slash64.base().hi(), 0) % 1000 <
         static_cast<std::uint64_t>(as.client_activity * 1000);
}

HostInfo Topology::host_j(const AsInfo& as, std::uint64_t key, unsigned j) const {
  const auto hj = h(as.asn, 0x40c8, key, j);
  std::uint64_t iid;
  const bool eyeball = as.type == AsType::kEyeballIsp;
  // IID style mix mirrors the paper's Table 1 seed classifications:
  // servers are mostly lowbyte/random with ~10% EUI-64; residential
  // clients are mostly SLAAC privacy addresses with some EUI-64 CPE LAN
  // interfaces.
  unsigned style;  // 0 = lowbyte, 1 = EUI-64, 2 = random
  if (eyeball) {
    style = hj % 8 < 6 ? 2u : 1u;
  } else {
    const auto r = hj % 20;
    style = r < 9 ? 0u : (r < 18 ? 2u : 1u);
  }
  switch (style) {
    case 0:  // lowbyte server numbering
      iid = 0x10 + j;
      break;
    case 1: {  // EUI-64 from a server/CPE MAC
      const std::uint32_t oui =
          eyeball ? as.cpe_oui : kServerOuis[hj % std::size(kServerOuis)];
      Mac mac{{static_cast<std::uint8_t>(oui >> 16),
               static_cast<std::uint8_t>(oui >> 8), static_cast<std::uint8_t>(oui),
               static_cast<std::uint8_t>(hj >> 16), static_cast<std::uint8_t>(hj >> 8),
               static_cast<std::uint8_t>(hj)}};
      iid = eui64_iid(mac);
      break;
    }
    default:  // SLAAC privacy (random)
      iid = splitmix64(hj) | (1ULL << 63);  // ensure clearly non-lowbyte
      break;
  }
  HostInfo host;
  host.addr = Ipv6Addr::from_halves(key, iid);
  host.du_port_responder = (eyeball ? hj % 3 : hj % 4) == 0;
  host.echo_responder = !host.du_port_responder;
  return host;
}

std::vector<HostInfo> Topology::hosts_in(const AsInfo& as, const Prefix& slash64) const {
  std::vector<HostInfo> out;
  const auto key = slash64.base().hi();
  const unsigned n = static_cast<unsigned>(h(as.asn, 0x40c7, key) % 9);  // 0..8
  out.reserve(n);
  for (unsigned j = 0; j < n; ++j) out.push_back(host_j(as, key, j));
  return out;
}

std::optional<HostInfo> Topology::host_at(const AsInfo& as, const Ipv6Addr& a) const {
  const Prefix p64{a, 64};
  if (!subnet_exists(as, a)) return std::nullopt;
  // The gateway's own interface answers echoes like a host would.
  if (gateway_iface(as, p64) == a) return HostInfo{a, true, false};
  // Probe the deterministic host list without materializing it: this runs
  // once per delivered probe.
  const auto key = p64.base().hi();
  const unsigned n = static_cast<unsigned>(h(as.asn, 0x40c7, key) % 9);
  for (unsigned j = 0; j < n; ++j) {
    const auto host = host_j(as, key, j);
    if (host.addr == a) return host;
  }
  return std::nullopt;
}

Ipv6Addr Topology::gateway_iface(const AsInfo& as, const Prefix& slash64) const {
  const auto base = slash64.base();
  switch (as.gateway) {
    case GatewayConvention::kLowbyteInTarget64:
      return Ipv6Addr::from_halves(base.hi(), 1);
    case GatewayConvention::kEui64CpeInTarget64: {
      const auto hj = h(as.asn, 0xc3e, base.hi());
      Mac mac{{static_cast<std::uint8_t>(as.cpe_oui >> 16),
               static_cast<std::uint8_t>(as.cpe_oui >> 8),
               static_cast<std::uint8_t>(as.cpe_oui),
               static_cast<std::uint8_t>(hj >> 16), static_cast<std::uint8_t>(hj >> 8),
               static_cast<std::uint8_t>(hj)}};
      return Ipv6Addr::from_halves(base.hi(), eui64_iid(mac));
    }
    case GatewayConvention::kInfraBlock:
    default: {
      // One gateway serves the covering /56: addresses in sibling /64s share
      // it, so such networks expose less /64-level divergence (as the paper
      // observes for infrastructure-numbered networks).
      const auto p56 = base.masked(56);
      const unsigned as_idx = as.asn - kBaseAsn;
      const auto idx = h(as.asn, 0x96f, p56.hi()) & 0xfffff;
      return Ipv6Addr::from_halves(
          primary_hi(as_idx) | (kInfraRegion << 24) | (0x6ULL << 20) | idx, 1);
    }
  }
}

std::vector<Prefix> Topology::enumerate_subnets(const AsInfo& as, std::size_t max) const {
  std::vector<Prefix> out;
  const unsigned as_idx = as.asn - kBaseAsn;
  auto scan_p48 = [&](std::uint64_t p48_hi) {
    const bool use_agg = as.agg_density != 0;
    for (unsigned agg = 0; agg < 256 && out.size() < max; ++agg) {
      const auto p56_hi = p48_hi | (static_cast<std::uint64_t>(agg) << 8);
      if (use_agg &&
          !agg_exists(as, Ipv6Addr::from_halves(p56_hi, 0)))
        continue;
      for (unsigned sub = 0; sub < 256 && out.size() < max; ++sub) {
        const auto p64_hi = p56_hi | sub;
        const auto a = Ipv6Addr::from_halves(p64_hi, 0);
        if (h(as.asn, 0x5b1, p64_hi, 0) % 256 < as.subnet_density)
          out.emplace_back(a, 64);
      }
      if (!use_agg) break;  // without the /56 level only agg==0 is scanned
    }
  };
  // Primary /32: regions × pops.
  for (unsigned r = 0; r < as.regions && out.size() < max; ++r) {
    for (unsigned p = 0; p < 256 && out.size() < max; ++p) {
      const auto p48_hi = primary_hi(as_idx) |
                          (static_cast<std::uint64_t>(r) << 24) |
                          (static_cast<std::uint64_t>(p) << 16);
      if (h(as.asn, 0x909, r, p) % 256 >= as.pop_density) continue;
      scan_p48(p48_hi);
    }
  }
  // Extra /48s.
  for (std::size_t j = 1; j < as.prefixes.size() && out.size() < max; ++j)
    if (as.prefixes[j].len() == 48 && (as.prefixes[j].base().hi() >> 48) == 0x2610)
      scan_p48(as.prefixes[j].base().hi());
  return out;
}

Hop Topology::infra_hop(const AsInfo& as, unsigned chain, unsigned idx,
                        unsigned variant, unsigned width,
                        std::uint64_t ingress) const {
  const unsigned as_idx = as.asn - kBaseAsn;
  const auto rid = h(as.asn, 0x4007ed, (static_cast<std::uint64_t>(chain) << 32) | idx,
                     variant);
  // The interface (not the router) depends on the ingress direction: core
  // and border routers have one address per neighbour they face.
  const auto iface_sel =
      (chain == 1 || chain == 2) ? splitmix64(rid ^ ingress) % 3 : 0;
  const auto hi = primary_hi(as_idx) | (kInfraRegion << 24) |
                  (static_cast<std::uint64_t>(chain & 0xf) << 20) |
                  ((static_cast<std::uint64_t>(idx) * 7 + variant * 3 + iface_sel) &
                   0xfffff);
  // Router interface IID style: most are lowbyte, some random, a few EUI-64.
  std::uint64_t iid;
  const auto style = rid % 16;
  if (style < 10) iid = 1 + (rid >> 56) % 4;            // ::1 .. ::4
  else if (style < 15) iid = splitmix64(rid) | (1ULL << 62);  // random-looking
  else {
    Mac mac{{0x00, 0x15, 0x5d, static_cast<std::uint8_t>(rid >> 16),
             static_cast<std::uint8_t>(rid >> 8), static_cast<std::uint8_t>(rid)}};
    iid = eui64_iid(mac);
  }
  return Hop{Ipv6Addr::from_halves(hi, iid), rid, width};
}

std::vector<std::int32_t> Topology::bfs_tree(std::uint32_t src) const {
  std::vector<std::int32_t> parent(ases_.size(), -1);
  std::queue<std::uint32_t> q;
  q.push(src);
  parent[src] = static_cast<std::int32_t>(src);
  while (!q.empty()) {
    const auto u = q.front();
    q.pop();
    for (const auto v : adj_[u]) {
      if (parent[v] != -1) continue;
      parent[v] = static_cast<std::int32_t>(u);
      q.push(v);
    }
  }
  return parent;
}

std::vector<Asn> Topology::as_path(Asn from, Asn to) const {
  const auto src = static_cast<std::uint32_t>(from - kBaseAsn);
  const auto dst = static_cast<std::uint32_t>(to - kBaseAsn);
  if (src >= ases_.size() || dst >= ases_.size()) return {};
  if (src == dst) return {from};
  const auto parent = bfs_tree(src);
  if (parent[dst] == -1) return {};
  std::vector<Asn> path;
  for (std::uint32_t v = dst;; v = static_cast<std::uint32_t>(parent[v])) {
    path.push_back(kBaseAsn + v);
    if (v == src) break;
  }
  std::reverse(path.begin(), path.end());
  return path;
}

Asn Topology::upstream_of(Asn vantage_asn) const {
  const auto toward_core = as_path(vantage_asn, kBaseAsn);  // toward tier-1 0
  if (toward_core.size() < 2)
    throw std::invalid_argument("Topology: vantage AS " + std::to_string(vantage_asn) +
                                " has no upstream toward AS " +
                                std::to_string(kBaseAsn));
  return toward_core[1];
}

void Topology::append_premise(const VantageInfo& vantage, std::vector<Hop>& hops) const {
  const auto* vas = as(vantage.asn);
  // On-premise chain, shared by every trace from this vantage.
  for (unsigned k = 0; k < vantage.premise_hops; ++k)
    hops.push_back(infra_hop(*vas, 0, (vantage.asn << 4) + k, 0, 1, vantage.asn));
  hops.push_back(infra_hop(*vas, 1, vantage.asn, 0, 1, vantage.asn));  // vantage border
}

void Topology::append_route_chain(const VantageInfo& vantage,
                                  std::span<const Asn> asp, std::uint64_t flow_hash,
                                  std::vector<Hop>& hops) const {
  append_premise(vantage, hops);
  // Inter-AS core: each intermediate AS contributes 1-2 hops, some of which
  // are ECMP groups resolved by the flow hash.
  for (std::size_t i = 1; i + 1 < asp.size(); ++i) {
    const auto* tas = as(asp[i]);
    const unsigned nhops = 1 + static_cast<unsigned>(h(asp[i], 0xc0de) % 2);
    for (unsigned k = 0; k < nhops; ++k) {
      const unsigned width = (h(asp[i], 0xec9, k) % 2) ? 2 : 1;
      const unsigned variant =
          width > 1 ? static_cast<unsigned>(flow_hash % width) : 0;
      hops.push_back(infra_hop(*tas, 2, k, variant, width, asp[i - 1]));
    }
  }
  if (asp.size() >= 2)  // destination border, unless the vantage's own AS
    hops.push_back(infra_hop(*as(asp.back()), 1, asp.back(), 0, 1, asp[asp.size() - 2]));
}

void Topology::append_unrouted_chain(const VantageInfo& vantage,
                                     std::vector<Hop>& hops) const {
  append_premise(vantage, hops);
  // Unrouted: the first upstream core router answers "no route".
  hops.push_back(infra_hop(*as(upstream_of(vantage.asn)), 2, 0, 0, 1, vantage.asn));
}

void Topology::build_route_chains() {
  // The chain appended since `offset`.
  auto chain_since = [&](std::size_t offset) {
    return ChainRef{static_cast<std::uint32_t>(offset),
                    static_cast<std::uint32_t>(chain_hops_.size() - offset)};
  };
  for (const auto& v : vantages_) {
    if (!as(v.asn))
      throw std::invalid_argument("Topology: vantage " + v.name +
                                  " lies outside every AS");
    for (const auto& dest : ases_) {
      const auto asp = as_path(v.asn, dest.asn);
      if (asp.empty())
        throw std::invalid_argument("Topology: AS " + std::to_string(dest.asn) +
                                    " is unreachable from vantage " + v.name);
      for (std::uint64_t variant = 0; variant < kEcmpVariantPeriod; ++variant) {
        const auto offset = chain_hops_.size();
        append_route_chain(v, asp, variant, chain_hops_);
        route_chains_.push_back(chain_since(offset));
      }
    }
    const auto offset = chain_hops_.size();
    append_unrouted_chain(v, chain_hops_);
    unrouted_chains_.push_back(chain_since(offset));
  }
}

void Topology::finish_path(std::optional<Asn> dest_asn, const Ipv6Addr& target,
                           std::uint8_t proto, Path& out) const {
  out.firewall_code = 1;
  if (!dest_asn) {
    out.dest_asn = 0;
    out.end = PathEnd::kUnrouted;
    return;
  }
  out.dest_asn = *dest_asn;
  const auto* das = as(*dest_asn);

  // Transport policy applies at the destination border.
  if (proto != 58 && das->transport != TransportPolicy::kAllowAll) {
    out.end = PathEnd::kTransportDenied;
    out.firewall_code =
        das->transport == TransportPolicy::kRejectUdpTcp ? 1 : 0xff;
    return;
  }

  const auto f = fields_of(target);
  if (!f.in_extra48) {
    if (f.region >= das->regions || f.region == kInfraRegion) {
      out.end = PathEnd::kNoRoute;
      return;
    }
    out.hops.push_back(infra_hop(*das, 3, f.region, 0, 1, das->asn));  // region router
    if (!pop_exists(*das, target)) {
      out.end = PathEnd::kNoRoute;
      return;
    }
    out.hops.push_back(infra_hop(*das, 4, (f.region << 8) | f.pop, 0, 1, das->asn));
  } else {
    if (!pop_exists(*das, target)) {  // extra /48s always exist as PoPs
      out.end = PathEnd::kNoRoute;
      return;
    }
    out.hops.push_back(infra_hop(*das, 4, 0x10000u + f.extra_idx, 0, 1, das->asn));
  }

  if (firewalled(*das, target)) {
    out.end = PathEnd::kFirewalled;
    out.firewall_code = (h(das->asn, 0xfc, target.masked(48).hi()) % 3) ? 1 : 6;
    return;
  }

  if (das->agg_density != 0) {
    if (!agg_exists(*das, target)) {
      out.end = PathEnd::kNoRoute;
      return;
    }
    const auto agg_idx = static_cast<unsigned>(
        h(das->asn, 0xa99, target.masked(56).hi()) & 0xffff);
    out.hops.push_back(infra_hop(*das, 5, agg_idx, 0, 1, das->asn));
  }

  if (!subnet_exists(*das, target)) {
    out.end = PathEnd::kNoRoute;
    return;
  }
  const Prefix p64{target, 64};
  const auto gw = gateway_iface(*das, p64);
  out.hops.push_back(Hop{gw, h(das->asn, 0x9a7e, gw.hi(), gw.lo()), 1});
  out.end = PathEnd::kDelivered;
}

void Topology::direct_path_into(const VantageInfo& vantage, const Ipv6Addr& target,
                                std::uint64_t flow_hash, std::uint8_t proto,
                                Path& out) const {
  if (!as(vantage.asn))
    throw std::invalid_argument("Topology: vantage " + vantage.name +
                                " lies outside every AS");
  out.hops.clear();
  const auto dest_asn = origin(target);
  if (dest_asn)
    append_route_chain(vantage, as_path(vantage.asn, *dest_asn), flow_hash, out.hops);
  else
    append_unrouted_chain(vantage, out.hops);
  finish_path(dest_asn, target, proto, out);
}

std::span<const Hop> Topology::head_chain(std::size_t vi,
                                          std::optional<Asn> dest_asn,
                                          std::uint64_t variant) const {
  const ChainRef chain =
      dest_asn ? route_chains_[(vi * ases_.size() + (*dest_asn - kBaseAsn)) *
                                   kEcmpVariantPeriod +
                               variant]
               : unrouted_chains_[vi];
  return {chain_hops_.data() + chain.offset, chain.len};
}

void Topology::path_into(const VantageInfo& vantage, const Ipv6Addr& target,
                         std::uint64_t flow_hash, std::uint8_t proto,
                         Path& out) const {
  const auto vi = vantage_index(vantage);
  if (!vi) {
    direct_path_into(vantage, target, flow_hash, proto, out);
    return;
  }
  const auto dest_asn = origin(target);
  const auto head = head_chain(*vi, dest_asn, flow_hash % kEcmpVariantPeriod);
  out.hops.reserve(head.size() + kMaxTargetHops);
  out.hops.assign(head.begin(), head.end());
  finish_path(dest_asn, target, proto, out);
}

Topology::PathHeads Topology::path_parts(const VantageInfo& vantage,
                                         const Ipv6Addr& target,
                                         std::uint8_t proto,
                                         Path& descent) const {
  const auto vi = vantage_index(vantage);
  if (!vi)
    throw std::invalid_argument("Topology::path_parts: vantage " + vantage.name +
                                " is not an element of vantages()");
  const auto dest_asn = origin(target);
  PathHeads heads;
  for (std::uint64_t variant = 0; variant < kEcmpVariantPeriod; ++variant)
    heads[variant] = head_chain(*vi, dest_asn, variant);
  descent.hops.clear();
  finish_path(dest_asn, target, proto, descent);
  return heads;
}

Path Topology::path(const VantageInfo& vantage, const Ipv6Addr& target,
                    std::uint64_t flow_hash, std::uint8_t proto) const {
  Path out;
  path_into(vantage, target, flow_hash, proto, out);
  return out;
}

}  // namespace beholder6::simnet
