// campaign/probe_source.hpp — the pull-based prober API.
//
// The paper's §4.2 experiments isolate exactly two variables: probe *order*
// and clock *pacing*. This layer factors the prober accordingly. A
// ProbeSource owns only the order (and any feedback-driven state such as
// yarrp6 fill chains or Doubletree stop sets); its Pacer (runner.hpp) owns
// everything else — pacing, virtual-clock advancement, encode/inject,
// reply decode and dispatch, per-source statistics — and CampaignRunner
// interleaves many Pacers over one simnet::Network.
//
// The protocol: the Pacer polls next() whenever the source's virtual send
// slot comes due. The source answers with a probe, a round boundary (bursty
// sources only — it tells the Pacer to idle out the rest of the round's
// rate budget), or exhaustion. After injecting a probe the Pacer feeds
// every decoded reply to on_reply() and then calls on_probe_done(), both
// before it polls the source again, so a source can steer its future order
// from what came back — which is all a stateful prober fundamentally is.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "netbase/ipv6.hpp"
#include "wire/probe.hpp"

namespace beholder6::campaign {

/// Called for every decoded reply, in arrival order. Runs during reply
/// dispatch over the network's pooled reply buffers, so a sink must not
/// inject into the campaign's own Network (observe, record, steer — fine).
using ResponseSink = std::function<void(const wire::DecodedReply&)>;

/// What a probing campaign reports about itself.
struct ProbeStats {
  std::uint64_t probes_sent = 0;
  std::uint64_t replies = 0;  // decoded, with this campaign's instance id
  std::uint64_t fills = 0;               // yarrp6 fill-mode probes
  std::uint64_t neighborhood_skips = 0;  // yarrp6 neighborhood-mode skips
  std::uint64_t traces = 0;              // number of distinct targets probed
  std::uint64_t elapsed_virtual_us = 0;
  // Reply packets the Pacer dropped: ones decode_reply rejects (a fragment
  // does not decode), and ones carrying another campaign's instance id.
  std::uint64_t undecodable_replies = 0;
  std::uint64_t foreign_replies = 0;

  ProbeStats& operator+=(const ProbeStats& o) {
    probes_sent += o.probes_sent;
    replies += o.replies;
    undecodable_replies += o.undecodable_replies;
    foreign_replies += o.foreign_replies;
    fills += o.fills;
    neighborhood_skips += o.neighborhood_skips;
    traces += o.traces;
    elapsed_virtual_us += o.elapsed_virtual_us;
    return *this;
  }
  friend bool operator==(const ProbeStats&, const ProbeStats&) = default;
};

/// One probe the Pacer should emit next.
struct Probe {
  Ipv6Addr target;
  std::uint8_t ttl = 0;
  bool fill = false;  // counts toward ProbeStats::fills
};

/// Result of polling a source.
struct Poll {
  enum class Status : std::uint8_t {
    kProbe,      // `probe` is valid
    kRoundEnd,   // bursty source finished a lockstep round: idle out budget
    kExhausted,  // nothing left; the source will not be polled again
  };
  Status status = Status::kExhausted;
  Probe probe;

  static Poll emit(const Probe& p) { return {Status::kProbe, p}; }
  static Poll round_end() { return {Status::kRoundEnd, {}}; }
  static Poll exhausted() { return {Status::kExhausted, {}}; }
};

/// The per-source wire identity: which vantage the probes leave from, with
/// what transport, tagged with which instance id (replies are filtered on
/// it, so campaigns can share one network without cross-talk).
struct Endpoint {
  Ipv6Addr src;
  wire::Proto proto = wire::Proto::kIcmp6;
  std::uint8_t instance = 1;
};

/// How the Pacer advances the virtual clock around a source's probes.
struct PacingPolicy {
  enum class Kind : std::uint8_t {
    kUniform,  // every probe is followed by a 1e6/pps gap (yarrp6)
    kBurst,    // in-round probes at line rate; idle to pps at round end
  };
  Kind kind = Kind::kUniform;
  double pps = 1000.0;
  /// kBurst only: virtual microseconds between in-round probes. 0 puts a
  /// whole round on one send instant; the Pacer still emits its probes one
  /// at a time, each with its feedback delivered before the next poll.
  std::uint64_t line_rate_gap_us = 1;

  static PacingPolicy uniform(double pps) {
    return {Kind::kUniform, pps, 0};
  }
  static PacingPolicy burst(double pps, std::uint64_t line_rate_gap_us) {
    return {Kind::kBurst, pps, line_rate_gap_us};
  }
};

/// Barrier hook for an epoch-coupled split family (see
/// ProbeSource::epoch_barrier). Split children that share snapshot state —
/// e.g. Doubletree's epoch-snapshotted stop set — all return one instance
/// of this interface, and the parallel backend drives the whole family in
/// lockstep *epochs*:
///
///   1. every non-exhausted child runs until ProbeSource::epoch_paused()
///      reports true (or the child exhausts);
///   2. once ALL children of the family are paused or exhausted, the
///      backend calls merge_epoch() exactly once, single-threaded, with
///      every child quiescent;
///   3. merge_epoch() folds the children's private write-deltas into the
///      shared frozen state in canonical subshard order (child 0 first),
///      opening epoch N+1;
///   4. the backend clears each paused child via epoch_resume() and
///      reschedules it.
///
/// Determinism: each child's probe stream is a pure function of (its
/// spec, the sequence of frozen epoch states), and each frozen state is a
/// pure function of the previous epoch's deltas merged in canonical
/// order — so the family's results are independent of thread count and
/// scheduling, exactly like the rest of the split contract.
class EpochBarrier {
 public:
  virtual ~EpochBarrier() = default;

  /// Fold every child's epoch-N write-delta into the shared read state in
  /// canonical subshard order and open epoch N+1. Called exactly once per
  /// barrier, single-threaded, only when every child of the family is
  /// paused at its epoch-N boundary or exhausted.
  virtual void merge_epoch() = 0;
};

/// A pull-based probe generator. Implementations must be deterministic:
/// identical construction + identical feedback ⇒ identical probe sequence.
class ProbeSource {
 public:
  virtual ~ProbeSource() = default;

  /// Called once, at the source's campaign start time, before any poll.
  virtual void begin(std::uint64_t now_us) { (void)now_us; }

  /// Pull the next event. `now_us` is the virtual time of the send slot.
  virtual Poll next(std::uint64_t now_us) = 0;

  /// One decoded, instance-filtered reply to the most recent probe. Called
  /// before the clock advances past the send slot and before next() is
  /// called again, so "the most recent probe" is always the one `probe`
  /// names — sources may track it with a cursor.
  virtual void on_reply(const Probe& probe, const wire::DecodedReply& reply,
                        std::uint64_t now_us) {
    (void)probe, (void)reply, (void)now_us;
  }

  /// The most recent probe's replies have all been delivered; `answered`
  /// says whether there was at least one. Like on_reply, called before
  /// next() is called again.
  virtual void on_probe_done(const Probe& probe, bool answered,
                             std::uint64_t now_us) {
    (void)probe, (void)answered, (void)now_us;
  }

  /// Merge source-private counters (trace counts, skip counters) into the
  /// campaign stats once the source is exhausted.
  virtual void finish(ProbeStats& stats) const { (void)stats; }

  /// Best guess at the *next* probe's target, if cheaply known. Purely a
  /// memory-latency hint for a driver that warms its own state one probe
  /// ahead, so a wrong (or absent) guess costs nothing and changes
  /// nothing. Sources whose next target depends on pending feedback may
  /// simply return their most likely candidate. No driver consumes it: a
  /// route-cache prefetch one probe ahead bought no step latency and made
  /// step times spread more from run to run.
  [[nodiscard]] virtual std::optional<Ipv6Addr> next_target_hint() const {
    return std::nullopt;
  }

  /// The whole-campaign analogue of next_target_hint: every target this
  /// source may ever probe, if cheaply known up front. The parallel backend
  /// sizes work units by its length (largest claimed first) and warms a
  /// shared read-only route snapshot, before any worker runs, from split
  /// families whose members all name the same targets; the reactor warms
  /// one at every submit. Split children that re-probe their parent's
  /// targets (yarrp6) name the parent's whole list; children that
  /// partition the targets (sequential, Doubletree) name only their own
  /// part. Purely a performance seam with the same contract as the hint —
  /// an empty span (the default, meaning "not cheaply known"), a partial
  /// answer, or extra addresses never change any result, only the claim
  /// order and how much of the campaign runs out of a snapshot. Valid for
  /// the source's lifetime.
  [[nodiscard]] virtual std::span<const Ipv6Addr> route_warm_targets() const {
    return {};
  }

  /// Deterministic over-decomposition: pre-partition this source's work
  /// into up to `k` independent subshard sources, so a parallel backend can
  /// distribute one shard's work below shard granularity (the returned
  /// sources are whole work units that workers may steal and run
  /// concurrently, each on its own network replica).
  ///
  /// Contract:
  ///   * May only be called on a *pristine* source — constructed but never
  ///     begun. The source itself is not mutated (it is simply never run
  ///     when a backend adopts its children instead).
  ///   * The partition must be a pure function of (construction parameters,
  ///     k): same source spec + same k ⇒ the same children, always. That is
  ///     what lets `k` join the campaign *spec* (like yarrp6's
  ///     shard/shard_count) while thread count stays a wall-clock-only knob.
  ///   * Children indexed 0..n-1 jointly cover exactly the parent's work;
  ///     their ProbeSource::finish() contributions must *sum* to the
  ///     parent's (e.g. exactly one child reports a shared trace count).
  ///   * Children may alias the parent's referenced storage (target spans),
  ///     which the caller already keeps alive for the campaign's duration;
  ///     they must not share mutable state with each other — with one
  ///     carve-out: children may share state that is mutated ONLY inside
  ///     EpochBarrier::merge_epoch(), in which case every child must
  ///     return that family's barrier from epoch_barrier() and honor the
  ///     epoch pause protocol below.
  ///
  /// Feedback-coupled sources whose coupling cannot be expressed as an
  /// epoch-snapshotted family are *unsplittable*: return an empty vector —
  /// the default — and backends fall back to running the source whole, as
  /// one work unit.
  [[nodiscard]] virtual std::vector<std::unique_ptr<ProbeSource>> split(
      std::uint64_t k) const {
    (void)k;
    return {};
  }

  /// Epoch coupling (split children only). A child that shares
  /// barrier-merged snapshot state with its siblings returns the family's
  /// one EpochBarrier here (the same pointer from every sibling, owned by
  /// the children, valid for their lifetime); free-running sources return
  /// nullptr — the default. A backend that adopts an epoch-coupled family
  /// must drive it with the EpochBarrier protocol; driving a child while
  /// ignoring it is still deterministic but no delta ever merges, i.e. the
  /// child sees only epoch 0 plus its own writes.
  [[nodiscard]] virtual EpochBarrier* epoch_barrier() const { return nullptr; }

  /// True when an epoch-coupled source has closed its current epoch: it
  /// must not be polled again until the family's EpochBarrier::merge_epoch
  /// has run and the backend clears the pause via epoch_resume(). The flag
  /// only ever becomes true at a Poll boundary (next() sets it while
  /// returning a round end or exhaustion), so a driver that checks it
  /// after every Pacer::step never lets a probe cross an epoch.
  /// Free-running sources always report false.
  [[nodiscard]] virtual bool epoch_paused() const { return false; }

  /// Clear the epoch pause after the family's barrier merge. Called by the
  /// backend's merging thread, before the child's next poll.
  virtual void epoch_resume() {}
};

}  // namespace beholder6::campaign
