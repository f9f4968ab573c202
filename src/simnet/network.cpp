#include "simnet/network.hpp"

#include "netbase/dcheck.hpp"
#include "netbase/rng.hpp"
#include "wire/fragment.hpp"
#include "wire/headers.hpp"
#include "wire/probe.hpp"

namespace beholder6::simnet {

using wire::Icmp6Header;
using wire::Icmp6Type;
using wire::Ipv6Header;
using wire::Proto;

TokenBucket& Network::bucket_for(std::uint64_t router_id) {
  auto it = buckets_.find(router_id);
  if (it != buckets_.end()) return it->second;
  if (params_->unlimited) {
    return buckets_.emplace(router_id, TokenBucket{}).first->second;
  }
  const auto hv = splitmix64(router_id ^ 0x6b7c);
  double rate, burst;
  if (params_->aggressive_modulus && hv % params_->aggressive_modulus == 0) {
    rate = params_->aggressive_rate;
    burst = params_->aggressive_burst;
  } else {
    rate = params_->base_rate +
           static_cast<double>(hv % 1000) / 1000.0 * params_->rate_spread;
    burst = params_->base_burst +
            static_cast<double>((hv >> 10) % 1000) / 1000.0 * params_->burst_spread;
  }
  // kRateLimitScale events multiply every budget; the event handler clears
  // buckets_ so existing limiters re-derive here at the scaled rate.
  return buckets_.emplace(router_id, TokenBucket{rate * rate_scale_, burst})
      .first->second;
}

bool Network::router_silent(std::uint64_t router_id) const {
  if (params_->silent_routers.contains(router_id)) return true;
  if (params_->silent_router_frac <= 0.0) return false;
  return static_cast<double>(splitmix64(router_id ^ 0x517e) % 1000000) <
         params_->silent_router_frac * 1e6;
}

bool Network::consume_token(std::uint64_t router_id) {
  if (bucket_for(router_id).try_consume(now_us_)) return true;
  ++stats_.rate_limited;
  return false;
}

std::uint64_t Network::flow_hash_of(const Ipv6Header& ip,
                                    std::span<const std::uint8_t> transport) {
  // Per-flow ECMP key. Routers hash addresses, the flow label, and the
  // leading transport bytes. Crucially for ICMPv6 the checksum (transport
  // bytes 2..4) participates — the behaviour the paper's checksum fudge is
  // designed to neutralize.
  std::uint64_t hsh = 1469598103934665603ULL;
  auto mix = [&hsh](std::uint8_t b) { hsh ^= b; hsh *= 1099511628211ULL; };
  for (auto b : ip.src.bytes()) mix(b);
  for (auto b : ip.dst.bytes()) mix(b);
  mix(static_cast<std::uint8_t>(ip.flow_label >> 16));
  mix(static_cast<std::uint8_t>(ip.flow_label >> 8));
  mix(static_cast<std::uint8_t>(ip.flow_label));
  mix(ip.next_header);
  const std::size_t n = static_cast<Proto>(ip.next_header) == Proto::kIcmp6
                            ? 8   // type, code, checksum, id, seq
                            : 4;  // ports
  for (std::size_t i = 0; i < n && i < transport.size(); ++i) mix(transport[i]);
  return hsh;
}

std::optional<Network::ProbeRouteKey> Network::probe_route_key(
    const Topology& topo, std::span<const std::uint8_t> probe) {
  const auto ip = Ipv6Header::decode(probe);
  if (!ip || probe.size() != Ipv6Header::kSize + ip->payload_length)
    return std::nullopt;
  const auto* vantage = topo.vantage_by_src(ip->src);
  if (!vantage) return std::nullopt;
  const auto vidx = static_cast<std::uint64_t>(*topo.vantage_index(*vantage));
  const auto flow_hash =
      flow_hash_of(*ip, probe.subspan(Ipv6Header::kSize));
  const auto variant = flow_hash % kEcmpVariantPeriod;
  return ProbeRouteKey{
      RouteKey{ip->dst.hi(),
               (vidx << 16) |
                   (static_cast<std::uint64_t>(ip->next_header) << 8) |
                   variant},
      static_cast<std::uint32_t>(vidx), ip->dst, ip->next_header, variant};
}

RouteCache::Resolved Network::resolve_path(const VantageInfo& vantage,
                                           const Ipv6Header& ip,
                                           std::uint64_t flow_hash) {
  const auto vidx = topo_.vantage_index(vantage);
  B6_DCHECK(vidx.has_value(), "resolve_path: vantage is not in topology().vantages()");
  const RouteKey key{ip.dst.hi(),
                     (static_cast<std::uint64_t>(*vidx) << 16) |
                         (static_cast<std::uint64_t>(ip.next_header) << 8) |
                         (flow_hash % kEcmpVariantPeriod)};
  // ECMP re-convergence bump for this cell. The key stays bump-free on
  // purpose: re-convergence makes the *old* entries for a cell stale, so
  // apply_dynamics_event invalidates them from the private cache, and new
  // resolutions under the same key carry the bumped path. Every cached
  // entry is therefore resolved under its cell's current cumulative bump.
  const std::uint64_t bump =
      ecmp_scopes_.empty() ? 0 : ecmp_bump_for(ip.dst.hi());
  const std::uint64_t eff_flow = flow_hash + bump;
  // Shared immutable tier: a warmed snapshot hit is the cheapest resolution
  // there is — one lock-free probe sequence over read-only memory, shared
  // by every replica. Results are identical to resolving fresh (the
  // snapshot is Topology::path memoized), so this short-circuit only
  // changes cost, never replies. Ordering under dynamics matters: the
  // snapshot holds pre-event (bump-0) paths and cannot be invalidated, so
  // a cell any re-convergence has touched must skip it — otherwise a warm
  // snapshot would resurrect routes the event withdrew.
  if (bump == 0 && shared_routes_) {
    if (const auto hit = shared_routes_->find(key)) {
      ++stats_.route_cache_hits;
      return *hit;
    }
  }
  if (params_->route_cache_entries == 0) {
    topo_.path_into(vantage, ip.dst, eff_flow, ip.next_header, path_scratch_);
    uncached_hops_.clear();
    for (const auto& hop : path_scratch_.hops)
      uncached_hops_.push_back({hop.iface, hop.router_id});
    return RouteCache::Resolved{
        uncached_hops_.data(), static_cast<std::uint32_t>(uncached_hops_.size()),
        RouteCache::CompactHop{}, false, path_scratch_.end,
        path_scratch_.firewall_code, path_scratch_.dest_asn};
  }
  if (const auto hit = route_cache_.find(key)) {
    ++stats_.route_cache_hits;
    return *hit;
  }
  ++stats_.route_cache_misses;
  // Deterministic eviction: clear whole. Replies are a function of the
  // probe sequence alone either way (a cached path equals the recomputed
  // one); the capacity is sized so campaigns stay inside it.
  if (route_cache_.size() >= params_->route_cache_entries) route_cache_.clear();
  topo_.path_into(vantage, ip.dst, eff_flow, ip.next_header, path_scratch_);
  return route_cache_.insert(key, path_scratch_);
}

void Network::make_icmp_error(const Ipv6Addr& from, const Ipv6Addr& to,
                              std::uint8_t type, std::uint8_t code,
                              const Packet& quoted, Packet& out) const {
  // RFC 4443: quote as much of the offending packet as fits under the
  // minimum MTU. Our probes are always small enough to quote whole. The
  // quoted hop limit reads zero: forwarded packets arrive with it run down.
  out.clear();
  Ipv6Header ip;
  ip.next_header = static_cast<std::uint8_t>(Proto::kIcmp6);
  ip.hop_limit = 64;
  ip.src = from;
  ip.dst = to;
  ip.payload_length =
      static_cast<std::uint16_t>(Icmp6Header::kSize + quoted.size());
  ip.encode(out);
  Icmp6Header icmp;
  icmp.type = static_cast<Icmp6Type>(type);
  icmp.code = code;
  icmp.encode(out);
  out.insert(out.end(), quoted.begin(), quoted.end());
  out[Ipv6Header::kSize + Icmp6Header::kSize + 7] = 0;  // quoted hop limit
  wire::finalize_transport_checksum(out);
}

void Network::make_echo_reply(const Ipv6Addr& from, const Ipv6Addr& to,
                              const Packet& probe, Packet& out) const {
  // Echo reply: same id/seq/payload as the request (RFC 4443 §4.2).
  out.clear();
  const auto transport = std::span(probe).subspan(Ipv6Header::kSize);
  Ipv6Header ip;
  ip.next_header = static_cast<std::uint8_t>(Proto::kIcmp6);
  ip.hop_limit = 64;
  ip.src = from;
  ip.dst = to;
  ip.payload_length = static_cast<std::uint16_t>(transport.size());
  ip.encode(out);
  const auto req = Icmp6Header::decode(transport);
  Icmp6Header icmp;
  icmp.type = Icmp6Type::kEchoReply;
  icmp.id = req->id;
  icmp.seq = req->seq;
  icmp.encode(out);
  const auto payload = transport.subspan(Icmp6Header::kSize);
  out.insert(out.end(), payload.begin(), payload.end());
  wire::finalize_transport_checksum(out);
}

void Network::reply_to_interface_echo(const wire::Ipv6Header& ip,
                                      std::uint64_t router_id,
                                      const Packet& probe, PacketPool& out) {
  ++stats_.echo_replies;
  Packet& reply = out.acquire();
  make_echo_reply(ip.dst, ip.src, probe, reply);
  if (reply.size() <= wire::kMinMtu) return;
  // Oversized: fragment with the router's shared Identification counter.
  auto [it, fresh] = frag_id_.emplace(
      router_id, static_cast<std::uint32_t>(splitmix64(router_id) & 0xffffff));
  const auto id = it->second++;
  // Fragments are encoded straight into pool slots: a warm pool keeps the
  // fragmentation reply path allocation-free (tools/check_noalloc.py).
  frag_scratch_ = reply;
  out.drop_last();
  wire::fragment_packet_into(std::span(frag_scratch_), id, wire::kMinMtu,
                             [&]() -> Packet& { return out.acquire(); });
}

std::span<const Packet> Network::inject_view(const Packet& probe) {
  B6_DCHECK(!in_inject_,
            "Network::inject_view is not reentrant: replies alias the shared "
            "pool; do not inject from an observer");
  in_inject_ = true;
  apply_due_dynamics();
  replies_.clear();
  inject_impl(probe, replies_);
  if (dup_prob_ > 0.0) duplicate_replies(probe, replies_);
  const auto replies = replies_.view();
  if (observer_) observer_(probe, replies);
  in_inject_ = false;
  return replies;
}

void Network::inject_impl(const Packet& probe, PacketPool& out) {
  ++stats_.probes;
  // Failure injection: lose this probe's reply with the configured
  // probability, keyed deterministically off content and time. A kLossModel
  // dynamics event overrides the configured probability until the next one.
  const double loss =
      loss_override_ >= 0.0 ? loss_override_ : params_->reply_loss;
  if (loss > 0.0) {
    std::uint64_t key = splitmix64(now_us_ ^ 0x10c355);
    for (std::size_t i = 0; i < probe.size(); i += 7) key = splitmix64(key ^ probe[i]);
    if (static_cast<double>(key % 1000000) < loss * 1000000.0) {
      ++stats_.lost_replies;
      return;
    }
  }
  // The one header decode of the probe's lifetime inside the simnet: the
  // decoded header and transport span thread through flow hashing and
  // routing from here.
  const auto ip = Ipv6Header::decode(probe);
  if (!ip || probe.size() != Ipv6Header::kSize + ip->payload_length) {
    ++stats_.malformed;
    return;
  }
  const auto* vantage = topo_.vantage_by_src(ip->src);
  if (!vantage) {
    ++stats_.malformed;
    return;
  }
  const auto transport = std::span(probe).subspan(Ipv6Header::kSize);

  const auto path = resolve_path(*vantage, *ip, flow_hash_of(*ip, transport));
  const unsigned ttl = ip->hop_limit;

  // Dynamics: a probe whose forwarding walk reaches a failed router dies
  // there, before the hop-limit logic at or beyond it can run. The probe
  // only travels min(ttl, hops) links, so a dead router past its hop limit
  // is irrelevant — TTL expiry at live hops in front of it is unchanged.
  // A loud failure answers "no route" from the hop before the dead one
  // (the router whose FIB lost the next hop), once per target through that
  // router's error limiter, like every other terminal unreachable; silent
  // failures, first-hop failures, and silent previous hops just eat it.
  if (!down_routers_.empty()) {
    const unsigned limit = std::min<unsigned>(ttl, path.n_hops());
    for (unsigned j = 0; j < limit; ++j) {
      const auto down = down_routers_.find(path.hop(j).router_id);
      if (down == down_routers_.end()) continue;
      if (down->second != 0 || j == 0) {
        ++stats_.silent_drops;
        return;
      }
      const auto& prev = path.hop(j - 1);
      if (router_silent(prev.router_id)) {
        ++stats_.silent_drops;
        return;
      }
      if (du_sent_.contains(ip->dst)) {
        ++stats_.silent_drops;
        return;
      }
      du_sent_.insert(ip->dst);
      if (!consume_token(prev.router_id)) return;
      ++stats_.dest_unreach[static_cast<unsigned>(wire::UnreachCode::kNoRoute)];
      make_icmp_error(prev.iface, ip->src,
                      static_cast<std::uint8_t>(Icmp6Type::kDestUnreachable),
                      static_cast<std::uint8_t>(wire::UnreachCode::kNoRoute),
                      probe, out.acquire());
      return;
    }
  }

  // Hop-limit expiry inside the path: Time Exceeded, rate limited. Silent
  // routers forward but never originate ICMPv6, so they stay invisible
  // (and are not recorded as learned interfaces).
  if (ttl >= 1 && ttl <= path.n_hops()) {
    const auto& hop = path.hop(ttl - 1);
    if (router_silent(hop.router_id)) {
      ++stats_.silent_drops;
      return;
    }
    iface_router_.emplace(hop.iface, hop.router_id);
    if (!consume_token(hop.router_id)) return;
    ++stats_.time_exceeded;
    make_icmp_error(hop.iface, ip->src,
                    static_cast<std::uint8_t>(Icmp6Type::kTimeExceeded), 0,
                    probe, out.acquire());
    return;
  }

  // Past every hop: if the destination is a router interface we have
  // previously revealed, the router itself answers echoes — fragmented when
  // oversized (the alias-probing path). This outranks the path-end logic:
  // infrastructure addresses are not in the routed edge hierarchy, but the
  // router that owns them is reachable all the same.
  if (static_cast<Proto>(ip->next_header) == Proto::kIcmp6) {
    const auto it = iface_router_.find(ip->dst);
    if (it != iface_router_.end()) {
      const auto icmp = Icmp6Header::decode(transport);
      if (icmp && icmp->type == Icmp6Type::kEchoRequest) {
        reply_to_interface_echo(*ip, it->second, probe, out);
        return;
      }
    }
  }

  // The probe outlives the measured path: terminal behaviour.
  auto du = [&](const Ipv6Addr& from, wire::UnreachCode code) {
    ++stats_.dest_unreach[static_cast<unsigned>(code)];
    make_icmp_error(from, ip->src,
                    static_cast<std::uint8_t>(Icmp6Type::kDestUnreachable),
                    static_cast<std::uint8_t>(code), probe, out.acquire());
  };
  const Ipv6Addr last =
      path.n_hops() == 0 ? vantage->src : path.hop(path.n_hops() - 1).iface;
  const std::uint64_t last_id =
      path.n_hops() == 0 ? 0 : path.hop(path.n_hops() - 1).router_id;
  // A silent last router suppresses terminal errors the same way it
  // suppresses Time Exceeded.
  if (path.end() != PathEnd::kDelivered && router_silent(last_id)) {
    ++stats_.silent_drops;
    return;
  }

  // Terminal errors are generated once per target: real border routers and
  // firewalls suppress repeated unreachables for the same destination (RFC
  // 4443 §2.4(f) bounded error rates), so a trace whose hop limit range
  // extends past the failure point sees one DU and then silence — which is
  // why Time Exceeded dominates real response distributions (Table 4).
  auto du_once = [&](wire::UnreachCode code) {
    if (du_sent_.contains(ip->dst)) {
      ++stats_.silent_drops;
      return;
    }
    du_sent_.insert(ip->dst);
    if (!consume_token(last_id)) return;
    du(last, code);
  };

  switch (path.end()) {
    case PathEnd::kUnrouted:
    case PathEnd::kNoRoute:
      // Routers where a route lookup fails often null-route silently.
      if (static_cast<double>(splitmix64(last_id ^ 0x9057) % 1000000) <
          params_->noroute_silent_frac * 1e6) {
        ++stats_.silent_drops;
        return;
      }
      du_once(wire::UnreachCode::kNoRoute);
      return;

    case PathEnd::kFirewalled:
      du_once(path.firewall_code() == 6 ? wire::UnreachCode::kRejectRoute
                                      : wire::UnreachCode::kAdminProhibited);
      return;

    case PathEnd::kTransportDenied:
      if (path.firewall_code() == 0xff) {  // silent drop policy
        ++stats_.silent_drops;
        return;
      }
      du_once(wire::UnreachCode::kAdminProhibited);
      return;

    case PathEnd::kDelivered:
      break;
  }

  // Delivered into the destination /64. A delivered end implies the target
  // originated from a real AS, carried in the resolved route — so the host
  // oracle runs without a per-probe BGP longest-prefix walk.
  const auto host = topo_.host_at(*topo_.as(path.dest_asn()), ip->dst);
  if (!host) {
    // Neighbour discovery fails; the gateway answers "address unreachable"
    // once per target, then caches the negative entry.
    if (nd_negative_cache_.contains(ip->dst)) {
      ++stats_.silent_drops;
      return;
    }
    nd_negative_cache_.insert(ip->dst);
    if (router_silent(last_id)) {
      ++stats_.silent_drops;
      return;
    }
    if (!consume_token(last_id)) return;
    du(last, wire::UnreachCode::kAddressUnreachable);
    return;
  }

  const auto proto = static_cast<Proto>(ip->next_header);
  if (host->du_port_responder) {
    // CPE/host firewall style: replies DU port-unreachable to unsolicited
    // probes of any transport, through its own error limiter.
    if (!consume_token(Ipv6AddrHash{}(host->addr))) return;
    du(host->addr, wire::UnreachCode::kPortUnreachable);
    return;
  }
  switch (proto) {
    case Proto::kIcmp6:
      if (host->echo_responder) {
        ++stats_.echo_replies;
        make_echo_reply(host->addr, ip->src, probe, out.acquire());
        return;
      }
      ++stats_.silent_drops;
      return;
    case Proto::kUdp:
      // No listener on the probe port: port unreachable from the host.
      if (!consume_token(Ipv6AddrHash{}(host->addr))) return;
      du(host->addr, wire::UnreachCode::kPortUnreachable);
      return;
    case Proto::kTcp:
    default:
      // TCP RST / silent policy: no ICMPv6 visible to the prober.
      ++stats_.silent_drops;
      return;
  }
}

void Network::apply_dynamics_event(const DynamicsEvent& ev) {
  switch (ev.kind) {
    case DynamicsKind::kLinkDown: {
      auto [it, fresh] = down_routers_.emplace(
          ev.router_id, static_cast<std::uint8_t>(ev.silent ? 1 : 0));
      if (!fresh) it->second = static_cast<std::uint8_t>(ev.silent ? 1 : 0);
      return;
    }
    case DynamicsKind::kLinkUp:
      down_routers_.erase(ev.router_id);
      return;
    case DynamicsKind::kEcmpReconverge: {
      // Invalidate before the bump takes effect: entries cached for the
      // matched cells were resolved under the old bump and are now stale.
      // The shared snapshot cannot be invalidated (it is read-only and
      // shared); resolve_path skips it for any bumped cell instead.
      if (params_->route_cache_entries != 0) {
        if (params_->dynamics->whole_cache_flush) {
          stats_.route_invalidations += route_cache_.size();
          route_cache_.clear();
        } else {
          stats_.route_invalidations +=
              route_cache_.invalidate_cells(ev.cell_base, ev.cell_mask);
        }
      }
      for (auto& sc : ecmp_scopes_) {
        if (sc.base == ev.cell_base && sc.mask == ev.cell_mask) {
          sc.bump += ev.bump;
          return;
        }
      }
      ecmp_scopes_.push_back({ev.cell_base, ev.cell_mask, ev.bump});
      return;
    }
    case DynamicsKind::kRateLimitScale:
      rate_scale_ = ev.rate_scale;
      // Budgets are derived state: drop them all and let bucket_for
      // re-derive at the scaled rate on next use.
      buckets_.clear();
      return;
    case DynamicsKind::kLossModel:
      loss_override_ = ev.reply_loss;
      dup_prob_ = ev.reply_dup;
      return;
  }
}

void Network::duplicate_replies(const Packet& probe, PacketPool& out) {
  // In-flight duplication: each reply the probe just produced is copied
  // with probability dup_prob_, keyed deterministically off (virtual time,
  // reply ordinal, probe content) — the same discipline as reply loss.
  const std::size_t produced = out.size();
  for (std::size_t i = 0; i < produced; ++i) {
    std::uint64_t key = splitmix64(now_us_ ^ 0xd0bb1e ^ (i + 1));
    for (std::size_t b = 0; b < probe.size(); b += 7)
      key = splitmix64(key ^ probe[b]);
    if (static_cast<double>(key % 1000000) >= dup_prob_ * 1000000.0) continue;
    // Copy by value *before* acquiring: acquire() may grow the slot vector
    // and invalidate any reference into it.
    Packet copy = out.view()[i];
    out.acquire() = std::move(copy);
    ++stats_.dup_replies;
  }
}

}  // namespace beholder6::simnet
