// campaign/reactor.hpp — campaign-as-a-service: one reactor multiplexing
// many tenants' campaigns over one simulated Internet.
//
// CampaignRunner drives one campaign; the ROADMAP's north star is a
// long-running service interleaving thousands of them. The CampaignReactor
// is that service core: it owns one *global* virtual clock and one min-heap
// of per-tenant send slots, admits campaigns at runtime
// (submit/pause/resume/cancel), shapes each tenant's share of the service
// with a per-tenant token bucket, and streams results incrementally per
// tenant — while keeping the repo's One Rule: results are a pure function
// of the submitted specs, never of wall-clock or submission order among
// simultaneous submits.
//
// Architecture: every campaign gets its own Network replica (shared
// immutable tier — Topology, params block, warmed read-only route
// snapshot — per-tenant mutable state), its own CampaignRunner, both built
// by the member builder shared with ParallelCampaignRunner
// (campaign/unit.hpp), and its own *local* virtual clock starting at 0.
// Runner and replica live exactly as long as the campaign: retirement
// frees them, so the reactor's memory follows its live tenants, not every
// tenant it ever admitted. The reactor schedules tenants against each
// other on the global clock:
//
//   global due = admission offset + runner-local due,
//                deferred to the tenant's token-bucket ready time.
//
// The heap orders slots by (global due, tenant id, member index) — virtual
// time first, stable spec-supplied tie-breaks after — which is the entire
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
// is computed from the tenant's own history alone. The runner-local due is
// pure per tenant (CampaignRunner's contract); the token bucket is debited
// at the tenant's own slot times; barrier merges inside a split family
// fire at the family's own arrival slots. No scheduling input ever reads
// the global clock or another tenant's state, so each tenant's slot/reply
// timeline is a pure function of its spec: the same as its solo run,
// however many tenants share the clock. The canonical merged order is
// (slot_us, tenant, member, seq); tests/campaign/reactor_test.cpp and
// reactor_property_test.cpp hold the solo-run and submission-order gates.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "campaign/probe_source.hpp"
#include "campaign/runner.hpp"
#include "campaign/unit.hpp"
#include "simnet/network.hpp"
#include "simnet/route_cache.hpp"
#include "simnet/token_bucket.hpp"

namespace beholder6::campaign {

/// One tenant's campaign submission: identity, work, pacing, service-level
/// throttle and probe budget. The source must be pristine (constructed,
/// never begun) and, like the sink, outlive the campaign.
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
  /// clock, as a token bucket (tokens/s, capacity). <= 0 disables. The
  /// throttle defers the tenant's global slots only; its local virtual
  /// timeline — and therefore its replies — stay byte-identical to an
  /// unthrottled solo run.
  double rate_limit_pps = 0.0;
  double rate_limit_burst = 1.0;
  /// Probes this campaign may send, 0 = unlimited. Reserved against
  /// ReactorOptions::max_reserved_probes at admission, released at
  /// retirement (cancel refunds the in-flight remainder), and enforced as
  /// a hard cap: reaching it retires the campaign deterministically.
  std::uint64_t probe_budget = 0;
  /// > 1: adopt ProbeSource::split(split_factor) children as one campaign
  /// (an epoch-coupled family if the source returns an EpochBarrier). The
  /// family counts as one campaign for admission and shares the tenant's
  /// bucket and budget.
  std::uint64_t split_factor = 1;
};

/// Ticket for one admitted campaign. `nonce` is the admission generation,
/// counted across reset(): a handle stays dead after its campaign retires
/// even if the tenant id is reused, so stale handles never alias a newer
/// campaign.
struct CampaignHandle {
  std::uint64_t tenant = 0;
  std::uint64_t nonce = 0;  // 0 = invalid
  [[nodiscard]] bool valid() const { return nonce != 0; }
  friend bool operator==(const CampaignHandle&, const CampaignHandle&) = default;
};

/// Why submit() answered as it did. Rejections are deterministic: a pure
/// function of the admission ledger (active campaigns, reserved probes) at
/// the submit — never of wall-clock or heap state.
enum class AdmitResult : std::uint8_t {
  kAdmitted,
  kRejectedBadSpec,          // null source, non-positive pps
  kRejectedDuplicateTenant,  // tenant id already in flight
  kRejectedCampaignLimit,    // would exceed max_campaigns
  kRejectedBudgetLimit,      // would exceed max_reserved_probes
};

/// submit()'s answer: the outcome plus a handle valid iff admitted.
struct Admission {
  AdmitResult result = AdmitResult::kRejectedBadSpec;
  CampaignHandle handle;
  [[nodiscard]] bool admitted() const { return result == AdmitResult::kAdmitted; }
};

/// Campaign lifecycle. Running/paused are live; the rest are terminal
/// (budget reservation released, slots retired, stats frozen, runners and
/// replicas freed).
enum class CampaignState : std::uint8_t {
  kRunning,
  kPaused,
  kFinished,          // every member exhausted
  kBudgetExhausted,   // probe_budget cap hit: deterministic forced retirement
  kCancelled,
};

/// One merged-stream element. `slot_us` is the *scheduled* global send
/// slot (not the clamped execution instant), which is what lets merged()
/// restore canonical order by sort after resume() re-pushes dues earlier
/// than slots that already ran; `local_us` is the tenant replica's own
/// virtual time at delivery. Canonical order — and the
/// bit-identical gate's comparison key — is (slot_us, tenant, member, seq).
struct ReactorReply {
  std::uint64_t slot_us = 0;
  std::uint64_t tenant = 0;
  std::uint32_t member = 0;   // family member index; 0 for unsplit campaigns
  std::uint64_t seq = 0;      // arrival index within (tenant, member)
  std::uint64_t local_us = 0;
  wire::DecodedReply reply;
};

/// Service configuration: admission ceilings and merged-stream collection.
struct ReactorOptions {
  /// Admission control: campaigns in flight (a family counts once).
  std::size_t max_campaigns = std::numeric_limits<std::size_t>::max();
  /// Admission control: sum of in-flight probe_budget reservations.
  std::uint64_t max_reserved_probes = std::numeric_limits<std::uint64_t>::max();
  /// Keep the canonical merged stream in memory (merged()). Per-tenant
  /// sinks fire either way; large services stream per tenant and turn
  /// this off.
  bool collect_merged = true;
};

/// The multi-tenant campaign service core: one serial event loop. Control
/// plane (submit, pause, resume, cancel, accessors), step() and drain() all
/// run on the caller and need external synchronization, like every driver
/// in this repo; ParallelCampaignRunner is the repo's one multi-threaded
/// front end.
///
/// Scheduling contract (the documented fair-share policy):
///   * Slots execute in (global due, tenant id, member index) order —
///     earliest virtual deadline first, stable spec-supplied tie-breaks.
///   * A tenant's global due is its admission offset plus its runner-local
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
/// Epoch-coupled families drive the same SplitFamily as the parallel
/// backend (campaign/unit.hpp): members park at epoch boundaries; the
/// family's last arrival — a park or an exhaustion — runs merge_epoch()
/// with every member quiescent, then the survivors are rescheduled at
/// their saved dues.
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

  /// Park a running campaign at its next step boundary: pending slots are
  /// pulled from the heap, saved dues intact. Returns false for stale
  /// handles or non-running campaigns. Pause/resume move the campaign in
  /// *global* time only — its local timeline, and therefore its results,
  /// are unchanged (reactor_test pins the byte-identity).
  bool pause(CampaignHandle h);

  /// Reschedule a paused campaign at its saved dues.
  bool resume(CampaignHandle h);

  /// Retire a campaign immediately and refund its in-flight probe-budget
  /// reservation (admission reopens at once). Members parked at an epoch
  /// barrier are released with the rest — a cancelled family never leaves
  /// the barrier waiting on a member that will not come. A step boundary
  /// op: never call it from the campaign's own sink.
  bool cancel(CampaignHandle h);

  /// Serial drive: pop and run the earliest due slot. Returns false when
  /// no slot is runnable (all campaigns terminal or paused). Control ops
  /// may interleave at any step boundary.
  bool step();

  /// step() until no slot is runnable; returns the number of slots run.
  std::size_t drain();

  /// Forget every campaign and rewind the global clock to 0. The warmed
  /// route snapshot (immutable perf tier) survives, exactly like
  /// Network::reset(). Submitted sources are caller-owned and by now
  /// consumed; a replay needs fresh sources with identical specs —
  /// reactor_test pins that such a replay is byte-identical.
  void reset();

  [[nodiscard]] std::uint64_t now_us() const { return now_us_; }
  /// True when step() would return false.
  [[nodiscard]] bool idle() const { return pending_ == 0; }
  [[nodiscard]] std::size_t active_campaigns() const { return active_; }
  [[nodiscard]] std::uint64_t reserved_probes() const { return reserved_; }
  /// Routes resolved into the shared snapshot so far.
  [[nodiscard]] std::uint64_t warmed_routes() const { return warmed_routes_; }

  /// Lifecycle of a campaign, or nullopt for a stale/unknown handle.
  [[nodiscard]] std::optional<CampaignState> state(CampaignHandle h) const;

  /// Stats summed over the campaign's members (complete, and frozen at
  /// retirement, once terminal; partial — probes so far — while live).
  /// Nullopt for stale handles.
  [[nodiscard]] std::optional<ProbeStats> stats(CampaignHandle h) const;

  /// The canonical merged stream, sorted by (slot_us, tenant, member,
  /// seq). Empty when ReactorOptions::collect_merged is off. Valid until
  /// the next step()/drain()/reset().
  [[nodiscard]] const std::vector<ReactorReply>& merged();

 private:
  struct Campaign;

  /// A family member's runner and replica plus its scheduling state.
  struct Member : MemberRunner {
    Campaign* campaign = nullptr;  // owner; how the lookahead reaches it
    std::vector<ReactorReply>* out = nullptr;  // &merged_ or null, from admission
    std::uint64_t slot_due = 0;    // the executing slot's scheduled due
    std::uint64_t due_global = 0;  // next slot's due (saved across pause)
    std::uint64_t next_seq = 0;    // per-member reply arrival index
    std::uint64_t probes_seen = 0; // runner probes already accounted
    std::uint64_t gen = 0;         // slot generation; mismatches are stale
    bool in_heap = false;          // a live slot sits in the *global* heap
  };

  /// Once settled, a campaign keeps only what handles and stale heap slots
  /// read: the Member shells (a GSlot::loc must not dangle before reset()),
  /// the state and ledger fields, and the frozen totals. settle() frees the
  /// members' runners and replicas, the split children and the sink copy.
  struct Campaign {
    explicit Campaign(const CampaignSpec& s)
        : spec(s), family(std::in_place, *s.source, s.split_factor) {}
    CampaignSpec spec;
    // Members' sources and their barrier bookkeeping; empty once settled.
    std::optional<SplitFamily> family;
    std::uint32_t index = 0;
    CampaignState state = CampaignState::kRunning;
    std::uint64_t start_us = 0;  // global admission offset
    simnet::TokenBucket bucket;
    bool throttled = false;
    bool settled = false;    // terminal bookkeeping and release done
    bool executing = false;  // a member's slot is running (settle's DCHECK)
    std::uint64_t probes_sent = 0;
    ProbeStats totals;  // members' stats, frozen at settle
    std::vector<Member> members;
  };

  /// A heap entry. Ordering is the fair-share policy: (due, tenant, member)
  /// — never a submission sequence number. `loc` locates the member
  /// directly, so the lookahead can warm it without first loading anything
  /// else. Member shells live until reset(), which empties the heap, so
  /// `loc` never dangles.
  struct GSlot {
    std::uint64_t due_us = 0;
    std::uint64_t tenant = 0;
    std::uint64_t gen = 0;
    Member* loc = nullptr;
    std::uint32_t member = 0;
    bool operator>(const GSlot& o) const {
      if (due_us != o.due_us) return due_us > o.due_us;
      if (tenant != o.tenant) return tenant > o.tenant;
      return member > o.member;
    }
  };

  void run_slot(Campaign& c, std::uint32_t mi, std::uint64_t slot_due);
  void reschedule_member(Campaign& c, std::uint32_t mi);
  void retire(Campaign& c, CampaignState state);
  void settle(Campaign& c);
  void push_global(Campaign& c, std::uint32_t mi, std::uint64_t due);
  void warm_lookahead() const;
  Campaign* find(CampaignHandle h) const;
  void sort_merged();

  const simnet::Topology& topo_;
  std::shared_ptr<const simnet::NetworkParams> params_;
  ReactorOptions options_;

  std::vector<std::unique_ptr<Campaign>> campaigns_;
  // Handles issued before the last reset(): campaign i of this run has
  // nonce nonce_base_ + i + 1, so an older handle never resolves.
  std::uint64_t nonce_base_ = 0;
  std::unordered_map<std::uint64_t, std::uint32_t> tenant_index_;  // active only
  // A binary min-heap under std::greater<GSlot> (push_global, step). An
  // explicit vector rather than a priority_queue so the lookahead can read
  // h[0..2], the next slots to run.
  std::vector<GSlot> heap_;
  std::size_t pending_ = 0;  // live (non-stale) slots in the heap
  std::uint64_t now_us_ = 0;
  std::size_t active_ = 0;
  std::uint64_t reserved_ = 0;

  std::vector<ReactorReply> merged_;
  bool merged_dirty_ = false;

  // The shared immutable tier: one read-only route snapshot, grown on the
  // control plane at submit (never concurrently with probe traffic) and
  // read lock-free by every replica. Entries are exactly Topology::path
  // results, so growth never changes any tenant's replies — only hit
  // rates. The warmer dedups keys across submits.
  RouteWarmer warmer_;
  std::uint64_t warmed_routes_ = 0;
};

}  // namespace beholder6::campaign
