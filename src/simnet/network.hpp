// simnet/network.hpp — the packet-level face of the synthetic Internet.
//
// A Network wraps a Topology with the *stateful* parts of the simulation: a
// virtual microsecond clock, per-router ICMPv6 token buckets, and the
// neighbour-discovery negative cache that bounds terminal Destination
// Unreachable chatter. Probers inject raw wire-format IPv6 packets (exactly
// the bytes they would hand a raw socket) and receive raw wire-format
// ICMPv6 replies.
//
// The virtual clock is the crux of the rate-limiting experiments: a prober
// "sends at R pps" by advancing the clock 1e6/R microseconds per packet
// (uniformly for yarrp6, burstily for the sequential prober), and the token
// buckets respond to that pacing precisely as real routers respond to real
// wall-clock pacing.
//
// Fast path. The paper's contribution is probing *volume*, so the
// steady-state inject cost is a first-class concern. Three mechanisms keep
// it allocation-free (tests/simnet/steady_state_alloc_test.cpp counts
// allocations to hold the line):
//   * a route cache memoizes resolved Paths keyed by (vantage, target /64
//     cell, ECMP flow variant, protocol) — the exact functional
//     dependencies of Topology::path, see its contract — with hit/miss
//     counters in NetworkStats and deterministic whole-cache eviction;
//   * replies are built into a PacketPool whose buffers persist across
//     probes; inject_view, the one way a probe enters the network, returns
//     a view into it;
//   * the mutable lookup state (token buckets, learned interfaces,
//     fragment-id counters, negative caches) lives in open-addressing
//     FlatMap/FlatSet tables instead of node-based containers.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <iterator>
#include <memory>
#include <optional>
#include <span>
#include <unordered_set>
#include <vector>

#include "netbase/dcheck.hpp"
#include "netbase/flat_map.hpp"
#include "simnet/dynamics.hpp"
#include "simnet/packet_pool.hpp"
#include "simnet/route_cache.hpp"
#include "simnet/token_bucket.hpp"
#include "simnet/topology.hpp"
#include "wire/headers.hpp"

namespace beholder6::simnet {

struct NetworkParams {
  /// Disable rate limiting entirely (for discovery-only experiments). The
  /// per-router budgets themselves are model constants (budget_of).
  bool unlimited = false;
  /// ICMPv6-silent routers: this fraction of routers never originate
  /// ICMPv6 errors (a common real-Internet behaviour; it is what stalls the
  /// paper's fill mode at unresponsive hops). Deterministic in router id.
  double silent_router_frac = 0.0;
  /// Specific routers forced silent regardless of the fraction — e.g. the
  /// paper's "hop five did not respond" premise-path router in the Table 6
  /// fill-mode trial.
  std::unordered_set<std::uint64_t> silent_routers;
  /// Fraction of routers that suppress "no route" unreachables entirely
  /// (null-route style, "no ip unreachables"). Core routers commonly do;
  /// edge gateways answering for delivered-but-dead targets do not. This is
  /// what makes deep (z64) probing elicit relatively more non-Time-Exceeded
  /// responses per probe than shallow probing (paper Table 3).
  double noroute_silent_frac = 0.6;
  /// Route cache capacity in resolved routes; 0 disables caching. When the
  /// cache fills it is cleared whole — a deterministic eviction (replies
  /// depend only on which probes went before, never on wall-clock or
  /// container iteration order). The default covers the largest Table 7
  /// campaign (~320k targets) with room to spare: randomized probe orders
  /// revisit every live target per TTL, so an undersized cache thrashes
  /// rather than degrades gracefully. One 64 B slot per route; ~100-130 B
  /// amortized with table slack and the shared chain-pool share.
  std::size_t route_cache_entries = std::size_t{1} << 20;
  /// Mid-campaign network dynamics: a schedule of virtual-time-stamped
  /// events (link failure/recovery, ECMP re-convergence, rate-limiter
  /// budget changes, loss-model swaps) the network applies on its
  /// virtual-clock boundary inside inject_view. A kLossModel event is the
  /// only source of in-flight reply loss and duplication. Shared
  /// and immutable like the rest of this block: every replica of a
  /// parallel campaign replays the identical event stream against its own
  /// clock, so churn is part of the campaign spec and the bit-identical
  /// thread/split gates hold with it active. Null = static network.
  std::shared_ptr<const DynamicsSchedule> dynamics;
};

/// Counters the trial benchmarks report (Tables 3, 4 and Figure 5 all
/// reduce to slices of these).
struct NetworkStats {
  std::uint64_t probes = 0;
  std::uint64_t time_exceeded = 0;
  std::uint64_t echo_replies = 0;
  std::uint64_t dest_unreach[7] = {};  // by ICMPv6 code
  std::uint64_t rate_limited = 0;      // responses suppressed by a bucket
  std::uint64_t silent_drops = 0;      // policy drops / dead hosts / ND cache
  std::uint64_t lost_replies = 0;      // injected in-flight loss
  std::uint64_t dup_replies = 0;       // injected in-flight duplication
  std::uint64_t malformed = 0;
  // ---- Performance counters -------------------------------------------
  // Everything below reports *cost*, not behaviour: cache on vs. off, a
  // warmed shared snapshot vs. a cold private cache, or an arena-reused
  // replica vs. a fresh one change these (and nothing else). They are
  // excluded from operator== so the bit-identical determinism gates
  // compare behaviour alone; operator+= still sums them for reporting.
  std::uint64_t route_cache_hits = 0;
  std::uint64_t route_cache_misses = 0;
  /// Replica-style constructions paid (the shared-params constructor, which
  /// the parallel backend's arenas and the reactor use). An arena that
  /// reset()s between work units reports 1 however many units it ran, so a
  /// parallel merge shows the number of Network builds actually
  /// constructed, not work units run.
  std::uint64_t replica_builds = 0;
  /// Dynamics events applied so far (a mechanism counter: each replica of
  /// a parallel run replays the schedule, so the total scales with work
  /// units, not with behaviour).
  std::uint64_t dynamics_events = 0;
  /// Private route-cache entries dropped by ECMP re-convergence events.
  /// Cost, not behaviour: a warmed shared snapshot keeps the private
  /// cache emptier (fewer entries to drop), and the whole_cache_flush
  /// oracle drops more — with byte-identical replies either way.
  std::uint64_t route_invalidations = 0;

  /// Accumulate another campaign's counters (cross-campaign reporting).
  NetworkStats& operator+=(const NetworkStats& o) {
    probes += o.probes;
    time_exceeded += o.time_exceeded;
    echo_replies += o.echo_replies;
    for (std::size_t i = 0; i < std::size(dest_unreach); ++i)
      dest_unreach[i] += o.dest_unreach[i];
    rate_limited += o.rate_limited;
    silent_drops += o.silent_drops;
    lost_replies += o.lost_replies;
    dup_replies += o.dup_replies;
    malformed += o.malformed;
    route_cache_hits += o.route_cache_hits;
    route_cache_misses += o.route_cache_misses;
    replica_builds += o.replica_builds;
    dynamics_events += o.dynamics_events;
    route_invalidations += o.route_invalidations;
    return *this;
  }
  /// Behavioural equality: every reply-shaping counter, with the
  /// performance counters (route_cache_hits/misses, replica_builds,
  /// dynamics_events, route_invalidations) excluded — those measure how
  /// cheaply (or through which mechanism) the same replies were produced,
  /// and legitimately differ between cold-cache and warmed-shared runs, or
  /// between scoped invalidation and the whole-flush oracle.
  friend bool operator==(const NetworkStats& a, const NetworkStats& b) {
    return a.probes == b.probes && a.time_exceeded == b.time_exceeded &&
           a.echo_replies == b.echo_replies &&
           std::equal(std::begin(a.dest_unreach), std::end(a.dest_unreach),
                      std::begin(b.dest_unreach)) &&
           a.rate_limited == b.rate_limited &&
           a.silent_drops == b.silent_drops &&
           a.lost_replies == b.lost_replies &&
           a.dup_replies == b.dup_replies && a.malformed == b.malformed;
  }
};

class Network {
 public:
  Network(const Topology& topo, NetworkParams params = {})
      : topo_(topo),
        params_(std::make_shared<const NetworkParams>(std::move(params))) {}

  /// Replica-style construction: share an existing immutable parameter
  /// block instead of copying one (NetworkParams carries a silent-router
  /// set, so per-replica copies are real cost at high shard counts). This
  /// is the constructor the parallel backend's per-worker arenas and the
  /// reactor's tenants use; it counts itself in
  /// NetworkStats::replica_builds. A replica shares nothing mutable with
  /// its siblings: each has its own clock, token buckets, caches and
  /// counters, matching vantage points that never share a router's
  /// rate-limit budget with themselves.
  Network(const Topology& topo, std::shared_ptr<const NetworkParams> params)
      : topo_(topo), params_(std::move(params)) {
    B6_DCHECK(params_ != nullptr, "Network needs a parameter block");
    ++stats_.replica_builds;
  }

  /// Virtual clock, microseconds since campaign start.
  [[nodiscard]] std::uint64_t now_us() const { return now_us_; }
  void advance_us(std::uint64_t us) { now_us_ += us; }

  /// Inject one wire-format probe; returns a view of zero or more
  /// wire-format replies, valid until the next inject_view/reset call on
  /// this Network. The packet's source address selects the vantage (must be
  /// registered in the topology). This is the only way a probe enters the
  /// network, and it allocates nothing in the steady state; a caller that
  /// holds replies across a second inject copies them out first.
  ///
  /// Non-reentrancy rule: the returned span (and the observer's reply span)
  /// aliases this Network's shared packet pool, so a ResponseSink, probe
  /// observer, or any code running under this call must NOT inject into the
  /// same Network — that would recycle the buffers mid-dispatch. Asserted in
  /// debug builds; observe, record, steer from callbacks, inject later.
  std::span<const Packet> inject_view(const Packet& probe);

  /// Per-probe observation hook: called after every injected probe with the
  /// probe and its replies, before they reach the caller. The reply view is
  /// valid only for the duration of the callback. Campaign tooling uses it
  /// to watch a shared network without wrapping every injection site.
  using ProbeObserver =
      std::function<void(const Packet& probe, std::span<const Packet> replies)>;
  void set_probe_observer(ProbeObserver observer) { observer_ = std::move(observer); }

  [[nodiscard]] const NetworkStats& stats() const { return stats_; }

  /// Reset all dynamic state between campaigns: buckets, caches (including
  /// the route cache), clock, stats, learned interfaces, and the per-router
  /// fragment-Identification counters. After reset() the network is
  /// indistinguishable from a freshly constructed one, so run → reset → run
  /// reproduces byte-for-byte. (Pooled buffer capacity is retained — it is
  /// not observable.)
  void reset() {
    buckets_.clear();
    nd_negative_cache_.clear();
    du_sent_.clear();
    now_us_ = 0;
    stats_ = {};
    iface_router_.clear();
    frag_id_.clear();
    route_cache_.clear();
    replies_.clear();
    // Dynamics state: rewind the schedule cursor and undo every applied
    // event — a reset network replays the schedule from virtual time zero,
    // which is what makes run → reset → run byte-identical with churn
    // active (and what lets arena replicas reset() between work units).
    dyn_next_ = 0;
    down_routers_.clear();
    ecmp_scopes_.clear();
    rate_scale_ = 1.0;
    reply_loss_ = 0.0;
    dup_prob_ = 0.0;
  }

  /// Router interfaces learned from Time Exceeded responses so far (address
  /// → router identity). Alias probing targets these directly.
  [[nodiscard]] const netbase::FlatMap<Ipv6Addr, std::uint64_t, Ipv6AddrHash>&
  learned_interfaces() const {
    return iface_router_;
  }

  /// Does this router never originate ICMPv6 (forced set or silent
  /// fraction)? Exposed so experiments can account for expected gaps.
  [[nodiscard]] bool router_silent(std::uint64_t router_id) const;

  /// Memory-latency hint: start pulling the per-probe mutable state of
  /// this replica — the reply pool and the headers of the lookup tables
  /// inject_view consults — into cache ahead of its next inject.
  /// Read-only and result-neutral. CampaignReactor::step issues it for the
  /// tenant it serves next, whose replica has gone cold while thousands of
  /// others ran.
  void prefetch_state() const {
    replies_.prefetch();
    buckets_.prefetch();
    iface_router_.prefetch();
    du_sent_.prefetch();
    nd_negative_cache_.prefetch();
  }

  /// Attach a read-only, fully warmed route snapshot. resolve_path consults
  /// it before the private cache: a snapshot hit costs one lock-free probe
  /// sequence and never touches mutable state, so any number of replicas
  /// can share one snapshot concurrently. Pass nullptr to detach.
  ///
  /// Purely a performance tier — the snapshot's entries are exactly what
  /// Topology::path would return, so attaching (or not attaching, or
  /// attaching a partial one) never changes any reply. The snapshot is
  /// immutable configuration, like the Topology and params: it survives
  /// reset() (which restores *dynamic* state only).
  void set_shared_routes(std::shared_ptr<const RouteCache> snapshot) {
    shared_routes_ = std::move(snapshot);
  }

  /// Everything the route cache keys a probe on, recovered from the wire
  /// bytes alone — what a warmup pass needs to pre-resolve the exact cache
  /// entries a campaign will hit, without injecting anything.
  struct ProbeRouteKey {
    RouteKey key;                 ///< (cell, vantage|proto|variant) cache key
    std::uint32_t vantage_index;  ///< index into topology().vantages()
    Ipv6Addr dst;                 ///< full destination (path resolution needs it)
    std::uint8_t next_header;     ///< wire::Proto of the probe
    std::uint64_t flow_variant;   ///< flow_variant_of: the ECMP variant, 0 or 1
  };

  /// Decode the route-cache key a probe would resolve under, without
  /// injecting it. Returns nullopt for malformed probes or unknown
  /// vantages (those never reach resolve_path either). Static and
  /// side-effect-free: safe from any thread against a shared Topology.
  [[nodiscard]] static std::optional<ProbeRouteKey> probe_route_key(
      const Topology& topo, std::span<const std::uint8_t> probe);

 private:
  void inject_impl(const Packet& probe, PacketPool& out);
  /// Apply every schedule event whose at_us has been reached by the virtual
  /// clock. Called on the clock boundary at the top of inject_view. The
  /// hot-path cost with no schedule is one null check; with one, a cursor
  /// compare.
  void apply_due_dynamics() {
    const auto* sched = params_->dynamics.get();
    if (!sched) return;
    const auto& evs = sched->events();
    while (dyn_next_ < evs.size() && evs[dyn_next_].at_us <= now_us_) {
      apply_dynamics_event(evs[dyn_next_]);
      ++dyn_next_;
      ++stats_.dynamics_events;
    }
  }
  B6_COLDPATH void apply_dynamics_event(const DynamicsEvent& ev);
  /// Flow-hash bump accumulated by ECMP re-convergence events over `cell`
  /// (0 when no event matched it). Part of resolve_path's key→path contract
  /// under dynamics: the effective flow hash is flow_variant + bump.
  [[nodiscard]] std::uint64_t ecmp_bump_for(std::uint64_t cell) const {
    std::uint64_t bump = 0;
    for (const auto& sc : ecmp_scopes_)
      if ((cell & sc.mask) == sc.base) bump += sc.bump;
    return bump;
  }
  /// Probabilistically duplicate the replies a probe just produced (the
  /// kLossModel reply_dup knob): deterministic in (virtual time, probe
  /// bytes), appends value-copies to the pool.
  B6_COLDPATH void duplicate_replies(const Packet& probe, PacketPool& out);
  void reply_to_interface_echo(const wire::Ipv6Header& ip,
                               std::uint64_t router_id, const Packet& probe,
                               PacketPool& out);
  /// A router's ICMPv6 error budget: a function of its id and the current
  /// rate scale.
  [[nodiscard]] TokenBucket::Budget budget_of(std::uint64_t router_id) const;
  [[nodiscard]] bool consume_token(std::uint64_t router_id);
  /// The probe's ECMP flow variant, 0 or 1: what byte-wise FNV-1a over
  /// the addresses, flow label, next header and leading transport bytes
  /// gives modulo kEcmpVariantPeriod, computed without the hash (it
  /// replaces flow_hash_of; see the identity at its definition). Reads the
  /// already-decoded header: the header is decoded exactly once per probe,
  /// in inject_impl.
  [[nodiscard]] static std::uint64_t flow_variant_of(
      const wire::Ipv6Header& ip, std::span<const std::uint8_t> transport);
  /// The resolved path for this probe: route-cache lookup, falling back to
  /// Topology::path_into on a miss (or always, when caching is disabled).
  /// The view is valid until the next resolve_path call.
  RouteCache::Resolved resolve_path(const VantageInfo& vantage,
                                    const wire::Ipv6Header& ip,
                                    std::uint64_t flow_variant);
  void make_icmp_error(const Ipv6Addr& from, const Ipv6Addr& to,
                       std::uint8_t type, std::uint8_t code, const Packet& quoted,
                       Packet& out) const;
  void make_echo_reply(const Ipv6Addr& from, const Ipv6Addr& to,
                       const Packet& probe, Packet& out) const;

  const Topology& topo_;
  // Immutable tier: shared and read-only. Everything below
  // these two is private mutable state wiped by reset().
  std::shared_ptr<const NetworkParams> params_;
  std::shared_ptr<const RouteCache> shared_routes_;
  ProbeObserver observer_;
  std::uint64_t now_us_ = 0;
  NetworkStats stats_;
  // Per-router balances; each budget is derived from the id (budget_of).
  netbase::FlatMap<std::uint64_t, TokenBucket> buckets_;
  static_assert(sizeof(std::pair<std::uint64_t, TokenBucket>) == 24,
                "a buckets_ entry is a router id and a balance");
  // Negative caches keyed by the *full* target address. (They were keyed by
  // a 64-bit hash once, which let two distinct targets collide and wrongly
  // suppress a Destination Unreachable.)
  netbase::FlatSet<Ipv6Addr, Ipv6AddrHash> nd_negative_cache_;  // ND failed
  netbase::FlatSet<Ipv6Addr, Ipv6AddrHash> du_sent_;  // terminal DU emitted
  netbase::FlatMap<Ipv6Addr, std::uint64_t, Ipv6AddrHash> iface_router_;
  // Per-router IPv6 fragment Identification counters. All interfaces of one
  // router draw from one counter — the signal speedtrap-style alias
  // resolution exploits.
  netbase::FlatMap<std::uint64_t, std::uint32_t> frag_id_;
  RouteCache route_cache_;
  // ---- Dynamics state (all wiped by reset(); see apply_dynamics_event) --
  std::size_t dyn_next_ = 0;  // cursor into params_->dynamics' event list
  // Routers currently down; the value is the failure's `silent` flag.
  netbase::FlatMap<std::uint64_t, std::uint8_t> down_routers_;
  // Accumulated ECMP re-convergence scopes. A probe's cell sums the bumps
  // of every matching scope (see ecmp_bump_for). Scopes are merged when a
  // new event repeats an existing (base, mask), so the list stays a
  // handful of entries however long the schedule runs.
  struct EcmpScope {
    std::uint64_t base;
    std::uint64_t mask;
    std::uint64_t bump;
  };
  std::vector<EcmpScope> ecmp_scopes_;
  double rate_scale_ = 1.0;      // kRateLimitScale multiplier on bucket rates
  double reply_loss_ = 0.0;      // kLossModel reply loss probability
  double dup_prob_ = 0.0;        // kLossModel reply duplication probability
  // Scratch for path resolution on a miss or with caching disabled
  // (capacity reused across probes).
  Path path_scratch_;
  std::vector<RouteCache::CompactHop> uncached_hops_;
  PacketPool replies_;   // reply pool behind inject_view
  bool in_inject_ = false;  // reentrancy guard: observers must not inject
  Packet frag_scratch_;  // staging for the (rare) oversized-echo path
};

}  // namespace beholder6::simnet
