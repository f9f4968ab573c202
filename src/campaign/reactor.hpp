// campaign/reactor.hpp — campaign-as-a-service: one reactor multiplexing
// many tenants' campaigns over one simulated Internet.
//
// CampaignRunner drives one campaign; the ROADMAP's north star is a
// long-running service interleaving thousands of them. The CampaignReactor
// is that service core: it owns one *global* virtual clock and one min-heap
// of per-tenant send slots, admits campaigns at runtime (submit), shapes
// each tenant's share of the service with a per-tenant token bucket, and
// streams results incrementally per tenant — while keeping the repo's One
// Rule: results are a pure function of the submitted specs, never of
// wall-clock or submission order among simultaneous submits. Like
// netsim's Sim, it has no control plane and no second policy layer: a
// campaign runs from its submit until its source exhausts, and admission
// only checks that the spec is well formed and its tenant id is free.
//
// Architecture: every campaign is one source with its own Network replica
// (shared immutable tier — Topology, params block, warmed read-only route
// snapshot — per-tenant mutable state) and the Pacer (campaign/runner.hpp)
// driving the source over it, in one block, with its own *local* virtual
// clock starting at 0. The block lives exactly as long as the campaign:
// retirement frees it, so the reactor's memory follows its live tenants,
// not every tenant it ever admitted. The reactor pushes each Pacer's due
// straight into its one global heap, scheduling tenants against each
// other on the global clock:
//
//   global due = admission offset + Pacer-local due,
//                deferred to the tenant's token-bucket ready time.
//
// The heap orders slots by (global due, tenant id) — virtual time first,
// the stable spec-supplied tenant id after — which is the entire
// fair-share policy: earliest virtual deadline first, ties broken by
// tenant identity, never by submission sequence or arrival interleaving.
//
// Lookahead: with thousands of tenants each step serves one whose state
// went cold while the others ran, so an unaided step() mostly waits on
// memory. The heap already names the next three tenants, and
// step() warms their state in stages before each slot runs (see
// warm_lookahead in reactor.cpp). The stages issue prefetch hints only:
// they load no value the schedule or a tenant reads, so they cannot
// change any result.
//
// Determinism argument (the load-bearing property): every quantity above
// is computed from the tenant's own history alone. The Pacer-local due is
// pure per tenant (the Pacer's contract); the token bucket is debited
// at the tenant's own slot times. No scheduling input ever reads
// the global clock or another tenant's state, so each tenant's slot/reply
// timeline is a pure function of its spec: the same as its solo run,
// however many tenants share the clock. The canonical merged order is
// (slot_us, tenant, seq); tests/campaign/reactor_test.cpp and
// reactor_property_test.cpp hold the solo-run and submission-order gates.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_set>
#include <vector>

#include "campaign/probe_source.hpp"
#include "campaign/runner.hpp"
#include "simnet/network.hpp"
#include "simnet/route_cache.hpp"
#include "simnet/token_bucket.hpp"

namespace beholder6::campaign {

/// One tenant's campaign submission: identity, work, pacing and
/// service-level throttle. The source must be pristine (constructed, never
/// begun) and, like the sink, outlive the campaign.
struct CampaignSpec {
  /// Caller-chosen tenant identity. Ties in the schedule resolve on it, so
  /// it must be unique among in-flight campaigns (submit rejects
  /// duplicates); reusing the id after retirement is fine.
  std::uint64_t tenant = 0;
  ProbeSource* source = nullptr;
  Endpoint endpoint;
  PacingPolicy pacing;
  /// Per-tenant incremental delivery, called for every decoded reply in
  /// arrival order (io::StreamingTraceSink is the intended adapter). The
  /// usual sink contract applies — observe and record, never inject.
  ResponseSink sink;
  /// Service-level throttle: this tenant's share of the *global* virtual
  /// clock, as a token bucket of `rate_limit_pps` tokens/s and capacity 1.
  /// <= 0 disables. The throttle defers the tenant's global slots only;
  /// its local virtual timeline — and therefore its replies — stay
  /// byte-identical to an unthrottled solo run.
  double rate_limit_pps = 0.0;
};

/// Ticket for one admitted campaign. `nonce` is the admission index plus
/// one, so a handle names its own campaign even after the tenant id is
/// reused by a later submit.
struct CampaignHandle {
  std::uint64_t tenant = 0;
  std::uint64_t nonce = 0;  // 0 = invalid
  friend bool operator==(const CampaignHandle&, const CampaignHandle&) = default;
};

/// Why submit() answered as it did. Rejections are deterministic: a pure
/// function of the spec and the tenant ids in flight at the submit — never
/// of wall-clock or heap state.
enum class AdmitResult : std::uint8_t {
  kAdmitted,
  kRejectedBadSpec,          // null source, non-finite or non-positive pps
  kRejectedDuplicateTenant,  // tenant id already in flight
};

/// submit()'s answer: the outcome plus a handle valid iff admitted.
struct Admission {
  AdmitResult result = AdmitResult::kRejectedBadSpec;
  CampaignHandle handle;
  [[nodiscard]] bool admitted() const { return result == AdmitResult::kAdmitted; }
};

/// Campaign lifecycle. Running is live; finished is terminal (the source
/// exhausted: stats frozen, Pacer and replica freed).
enum class CampaignState : std::uint8_t {
  kRunning,
  kFinished,
};

/// One merged-stream element. `slot_us` is the *scheduled* global send
/// slot (not the clamped execution instant), which is what lets merged()
/// restore canonical order by sort: a submit between steps pushes its
/// first slot at the current instant, which can tie a slot that already
/// ran and carry a lower tenant id. `local_us` is the tenant replica's own
/// virtual time at delivery. Canonical order — and the bit-identical
/// gate's comparison key — is (slot_us, tenant, seq).
struct ReactorReply {
  std::uint64_t slot_us = 0;
  std::uint64_t tenant = 0;
  std::uint64_t seq = 0;      // arrival index within the tenant
  std::uint64_t local_us = 0;
  wire::DecodedReply reply;
};

/// Service configuration.
struct ReactorOptions {
  /// Keep the canonical merged stream in memory (merged()). Per-tenant
  /// sinks fire either way; large services stream per tenant and turn
  /// this off.
  bool collect_merged = true;
};

/// The multi-tenant campaign service core: one serial event loop. submit(),
/// step() and the accessors all run on the caller and need external
/// synchronization, like every driver in this repo;
/// ParallelCampaignRunner is the repo's one multi-threaded front end.
///
/// Scheduling contract (the documented fair-share policy):
///   * Slots execute in (global due, tenant id) order — earliest virtual
///     deadline first, ties broken by the spec-supplied tenant id.
///   * A tenant's global due is its admission offset plus its Pacer-local
///     due, deferred to its token bucket's ready time. Buckets are debited
///     one token per probe at the tenant's own slot times.
///   * Progress bound (no starvation): a pending slot due at T runs before
///     any slot due after T, so a tenant's k-th probe lands at exactly its
///     pacing-and-bucket arithmetic time, independent of load — the
///     property suite asserts the equality, not just the bound.
///   * Scheduling is a pure function of the admitted specs: independent of
///     submission wall-clock and of submission order among simultaneous
///     submits (tie-breaks use tenant ids, never admission sequence).
///
/// A campaign is one source, run whole: split families (epoch-coupled or
/// not) are the parallel backend's, where their members run concurrently.
class CampaignReactor {
 public:
  /// The reactor builds one Network replica per campaign from `topo` +
  /// `params` (shared immutable tier). `topo` must outlive the reactor.
  explicit CampaignReactor(const simnet::Topology& topo,
                           simnet::NetworkParams params = {},
                           ReactorOptions options = {});
  ~CampaignReactor();

  CampaignReactor(const CampaignReactor&) = delete;
  CampaignReactor& operator=(const CampaignReactor&) = delete;

  /// Admit a campaign at the current global virtual time. Deterministic
  /// rejection (AdmitResult); on admission the tenant's first slot is
  /// scheduled immediately.
  Admission submit(const CampaignSpec& spec);

  /// Serial drive: pop and run the earliest due slot. Returns false when
  /// every campaign has retired. submit() may interleave at any step
  /// boundary.
  bool step();

  /// Routes resolved into the shared snapshot so far.
  [[nodiscard]] std::uint64_t warmed_routes() const { return warmed_routes_; }

  /// Lifecycle of a campaign, or nullopt for an unknown handle.
  [[nodiscard]] std::optional<CampaignState> state(CampaignHandle h) const;

  /// The campaign's stats (complete, and frozen at retirement, once
  /// terminal; partial — probes so far — while live).
  /// Nullopt for unknown handles.
  [[nodiscard]] std::optional<ProbeStats> stats(CampaignHandle h) const;

  /// The canonical merged stream, sorted by (slot_us, tenant, seq). Empty
  /// when ReactorOptions::collect_merged is off. Valid until the next
  /// step().
  [[nodiscard]] const std::vector<ReactorReply>& merged();

 private:
  /// What only a live campaign reads: its Network replica, the Pacer
  /// driving its source over it, and the reply-recording state its sink
  /// uses, in one allocation that settle() frees.
  struct Live {
    Live(const simnet::Topology& topo,
         std::shared_ptr<const simnet::NetworkParams> params, Pacer p)
        : net(topo, std::move(params)), pacer(std::move(p)) {}
    simnet::Network net;
    Pacer pacer;
    std::vector<ReactorReply>* out = nullptr;  // &merged_ or null
    std::uint64_t slot_due = 0;  // the executing slot's scheduled due
    std::uint64_t next_seq = 0;  // per-tenant reply arrival index
  };

  /// A campaign's scheduling state. Once retired it keeps only what
  /// handles read: the spec without its sink, the state and the frozen
  /// totals.
  /// settle() frees the Live block and the sink copy; a null `live` marks
  /// a settled campaign.
  struct Campaign {
    explicit Campaign(const CampaignSpec& s) : spec(s) {}
    CampaignSpec spec;
    std::unique_ptr<Live> live;
    std::uint64_t start_us = 0;    // global admission offset
    simnet::TokenBucket bucket;  // the service throttle's balance
    ProbeStats totals;  // the Pacer's stats, frozen at settle
    CampaignState state = CampaignState::kRunning;
    bool throttled = false;

    /// The service throttle's budget, derived from the spec at each use.
    [[nodiscard]] simnet::TokenBucket::Budget budget() const {
      return {spec.rate_limit_pps, 1.0};
    }
  };

  /// A heap entry. Ordering is the fair-share policy: (due, tenant) —
  /// never a submission sequence number. `loc` locates the campaign
  /// directly, so the lookahead can warm it without first loading anything
  /// else. A live campaign has exactly one slot in the heap, and it
  /// retires only after step() has popped that slot, so no slot is ever
  /// stale and `loc` always names a live campaign.
  struct GSlot {
    std::uint64_t due_us = 0;
    std::uint64_t tenant = 0;
    Campaign* loc = nullptr;
    bool operator>(const GSlot& o) const {
      if (due_us != o.due_us) return due_us > o.due_us;
      return tenant > o.tenant;
    }
  };

  void run_slot(Campaign& c, std::uint64_t slot_due);
  void reschedule(Campaign& c);
  void settle(Campaign& c);
  void warm_lookahead() const;
  Campaign* find(CampaignHandle h) const;

  const simnet::Topology& topo_;
  std::shared_ptr<const simnet::NetworkParams> params_;
  ReactorOptions options_;

  std::vector<std::unique_ptr<Campaign>> campaigns_;  // campaign i: nonce i + 1
  std::unordered_set<std::uint64_t> in_flight_;  // running campaigns' tenant ids
  // A binary min-heap under std::greater<GSlot> (reschedule, step). An
  // explicit vector rather than a priority_queue so the lookahead can read
  // h[0..2], the next slots to run.
  std::vector<GSlot> heap_;
  std::uint64_t now_us_ = 0;

  std::vector<ReactorReply> merged_;
  bool merged_dirty_ = false;

  // Every campaign's probes are encoded into this one reused buffer.
  simnet::Packet probe_buf_;

  // The shared immutable tier: one read-only route snapshot, grown at
  // submit, between steps (never concurrently with probe traffic), and
  // read lock-free by every replica. Entries are exactly Topology::path
  // results, so growth never changes any tenant's replies — only hit
  // rates. The warmer dedups keys across submits.
  RouteWarmer warmer_;
  std::uint64_t warmed_routes_ = 0;
};

}  // namespace beholder6::campaign
