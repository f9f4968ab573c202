// simnet/dynamics.hpp — mid-campaign network churn as scheduled,
// deterministic events.
//
// The paper's discovery strategies (randomized yarrp6 walks, Doubletree
// stop sets) are motivated by topology that changes *under* the prober —
// stale stop sets and rate-limiter interference are caveats in the paper,
// not experiments. A DynamicsSchedule turns that caveat into a first-class
// scenario: a sorted list of virtual-time-stamped events (link failure and
// recovery, ECMP re-convergence, rate-limiter budget changes, loss/dup
// model swaps) that a Network applies on its virtual-clock boundary inside
// inject_view.
//
// Determinism contract. Every event is a pure function of (schedule,
// virtual time): the schedule is immutable after construction, rides in
// NetworkParams' shared block, and each Network (or replica, or arena
// reset() between work units) replays it against its *own* virtual clock
// from a cursor that reset() rewinds to zero. No wall clock, no entropy:
// churn is part of the campaign spec, so the 1/2/8-thread and split-factor
// bit-identical gates hold with a schedule active exactly as without one
// (tools/lint_determinism.py's raw-random rule guards the timestamp
// discipline; see tools/lint_corpus/wallclock_event.cpp).
//
// Event semantics (applied in at_us order; ties in insertion order):
//   kLinkDown       router_id stops forwarding. A probe whose resolved path
//                   enters it dies there: the previous hop answers
//                   Destination Unreachable (no route), once per target,
//                   unless the failure is `silent` (or the router is the
//                   first hop) — then the loss is silent.
//   kLinkUp         the router forwards again; paths through it heal.
//   kEcmpReconverge load-balancer re-hash over the cells matching
//                   (cell & cell_mask) == cell_base: `bump` is added to the
//                   flow hash of every matched cell before Topology::path
//                   resolves, which flips every width-2 ECMP hop
//                   deterministically (kEcmpVariantPeriod == 2). The
//                   Network drops its private route-cache entries for the
//                   matched cells and stops consulting the shared route
//                   snapshot for them — both hold pre-event paths.
//   kRateLimitScale every router's ICMPv6 token-bucket rate is multiplied
//                   by rate_scale and the limiters re-initialize at the new
//                   budgets (buckets are derived state, rebuilt on demand).
//   kLossModel      swap the in-flight reply loss probability and the reply
//                   duplication probability. (Reorder is not modelled: the
//                   simulator is synchronous, replies arrive within their
//                   probe's inject call, so there is no inter-reply
//                   timeline to permute.)
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "simnet/topology.hpp"

namespace beholder6::simnet {

enum class DynamicsKind : std::uint8_t {
  kLinkDown,
  kLinkUp,
  kEcmpReconverge,
  kRateLimitScale,
  kLossModel,
};

/// One scheduled network event. Only the fields of its kind are read; the
/// rest stay at their defaults (kept flat — a schedule is a handful of
/// events, not a hot data structure).
struct DynamicsEvent {
  std::uint64_t at_us = 0;  ///< virtual time the event becomes due
  DynamicsKind kind = DynamicsKind::kLinkDown;
  // kLinkDown / kLinkUp
  std::uint64_t router_id = 0;
  bool silent = false;  ///< kLinkDown: drop without a no-route unreachable
  // kEcmpReconverge: affects cells with (cell & cell_mask) == cell_base.
  // cell_mask == 0 (with cell_base == 0) matches every cell.
  std::uint64_t cell_base = 0;
  std::uint64_t cell_mask = 0;
  std::uint64_t bump = 1;  ///< added to the flow hash of matched cells
  // kRateLimitScale
  double rate_scale = 1.0;
  // kLossModel
  double reply_loss = 0.0;
  double reply_dup = 0.0;

  friend bool operator==(const DynamicsEvent&, const DynamicsEvent&) = default;
};

/// An immutable-after-construction event list, kept sorted by (at_us,
/// insertion order). Shared by pointer from NetworkParams: one schedule
/// object serves every replica of a parallel campaign, each replaying it
/// on its own clock.
class DynamicsSchedule {
 public:
  /// Insert an event at its timestamp-sorted position; events with equal
  /// at_us keep their insertion order (the application order is part of
  /// the campaign spec, so it must not depend on construction details).
  void add(const DynamicsEvent& ev) {
    auto it = events_.end();
    while (it != events_.begin() && (it - 1)->at_us > ev.at_us) --it;
    events_.insert(it, ev);
  }

  [[nodiscard]] const std::vector<DynamicsEvent>& events() const {
    return events_;
  }
  [[nodiscard]] bool empty() const { return events_.empty(); }
  [[nodiscard]] std::size_t size() const { return events_.size(); }

  /// Oracle knob for the property suite: when true, every kEcmpReconverge
  /// flushes the Network's whole private route cache instead of only the
  /// matched cells. Scoped invalidation must be result-identical to this
  /// (tests/simnet/dynamics_property_test.cpp asserts it); the flag exists
  /// so that equivalence is checkable, not for production use.
  bool whole_cache_flush = false;

 private:
  std::vector<DynamicsEvent> events_;
};

/// Knobs for make_churn_schedule. Everything is deterministic in `seed`.
struct ChurnParams {
  std::uint64_t seed = 1;
  /// Virtual-time horizon the events are placed inside. Pick it shorter
  /// than the shortest work unit's virtual duration so every replica
  /// experiences the full schedule.
  std::uint64_t horizon_us = 1000000;
  unsigned link_failures = 2;       ///< down/up pairs over mid-path routers
  unsigned scoped_reconvergences = 2;  ///< per-/48 ECMP re-hashes
  /// Two whole-table ECMP re-hashes (at ~0.35 and ~0.7 of the horizon).
  /// The second one guarantees nonzero scoped-invalidation work even when
  /// a warmed shared snapshot keeps private caches empty until the first.
  bool global_reconvergences = true;
  bool rate_change = true;   ///< halve limiter budgets mid-campaign
  bool loss_swap = true;     ///< loss/dup on at ~0.55, off at ~0.85
};

/// Mid-path routers (past the vantage's premise chain) harvested from the
/// resolved paths toward `sample_targets` — the deterministic candidate
/// pool link-failure events draw from. Sorted and deduplicated so the
/// result is a pure function of (topology, vantage, targets).
[[nodiscard]] std::vector<std::uint64_t> churn_candidate_routers(
    const Topology& topo, const VantageInfo& vantage,
    std::span<const Ipv6Addr> sample_targets);

/// Generate a seeded churn schedule over the given horizon: link
/// failure/recovery pairs on harvested mid-path routers, scoped and global
/// ECMP re-convergences, a rate-limiter budget change, and a loss-model
/// swap. A pure function of (topology, vantage, sample_targets, params) —
/// the campaign churn tests and benchmark/'s doubletree_churn share it.
[[nodiscard]] DynamicsSchedule make_churn_schedule(
    const Topology& topo, const VantageInfo& vantage,
    std::span<const Ipv6Addr> sample_targets, const ChurnParams& params);

}  // namespace beholder6::simnet
