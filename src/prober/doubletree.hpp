// prober/doubletree.hpp — Doubletree (Donnet et al., SIGMETRICS 2005) as a
// baseline (paper §4.2).
//
// Doubletree starts each trace at an intermediate TTL h0 and probes
// *forward* until the destination (or gap limit), then *backward* toward
// the vantage, stopping early when it hits an interface already in the
// global stop set — exploiting the tree-like redundancy of initial hops.
//
// The paper observes a pathology under ICMPv6 rate limiting which this
// implementation reproduces faithfully: when a near-vantage hop is
// rate-limited into silence, its address never enters the stop set, so
// backward probing keeps hammering precisely the drained routers and they
// never recover. Doubletree also needs h0 tuned per vantage, and its
// stop-set inference can graft stale path segments — both discussed as
// fundamental limitations in the paper.
//
// DoubletreeSource emits the lockstep forward/backward order through the
// pull API (burst pacing, like the sequential prober). The caller owns the
// StopSet it reads and grows, so one set can span several campaigns.
//
// Sub-shard parallelism: the stop set used to make Doubletree the one
// unsplittable ProbeSource (every trace reads and grows shared feedback
// state). split(k) now returns a real partition by layering the stop set
// as an epoch-snapshotted family — see SnapshotStopSet below for the full
// semantics contract, and docs/ARCHITECTURE.md "Epoch-snapshotted
// Doubletree" for the guided version.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "campaign/probe_source.hpp"
#include "netbase/flat_map.hpp"
#include "prober/prober.hpp"

namespace beholder6::prober {

/// Doubletree's knob on top of the shared lockstep (windowed, burst-paced)
/// configuration: the intermediate start TTL h0 the forward phase opens at.
/// A split family's epoch is one window batch, so the window sets it.
struct DoubletreeConfig : LockstepConfig {
  std::uint8_t start_ttl = 6;   // h0: heuristic, per-vantage (paper's gripe)
};

/// Shared stop-set type: interfaces already observed by some trace, read
/// and grown by every trace as it runs, which the caller may keep across
/// campaigns (Doubletree's original cooperating-monitor design). A split
/// family reads it as its frozen epoch set and its barrier merges grow it
/// in place (SnapshotStopSet). Rule: within one run a StopSet backs one
/// source, so nothing else writes it while a family reads it. Only
/// membership is observable; iteration order depends on the table layout.
using StopSet = netbase::FlatSet<Ipv6Addr, Ipv6AddrHash>;

/// Epoch-snapshotted stop set: the shared state of a split Doubletree
/// family, and the campaign::EpochBarrier that merges it.
///
/// Semantics contract (the "defined semantics" the ROADMAP asked for):
///
///   * The set is layered as one immutable *frozen epoch set* — the
///     caller's StopSet itself — plus one private *write delta* per child.
///     During epoch N, child j reads "frozen ∪ delta j" and writes only
///     delta j — so siblings never observe each other's discoveries
///     mid-epoch, and no cross-thread synchronization happens on the probe
///     path.
///   * merge_epoch() — called by the parallel backend's barrier, single
///     threaded, with every child paused or exhausted — folds the deltas
///     into the caller's StopSet in canonical child order (child 0 first),
///     clears them, and opens epoch N+1. There is no separate publish
///     step: the merge that follows the last exhaustion leaves the union
///     in the caller's set, so a set kept across campaigns holds the same
///     aggregate a serial run would have produced.
///   * A child closes its epoch after every window batch that leaves work
///     behind, so everything is a pure function of (parent config,
///     split k): the probe streams of a family are bit-identical at any
///     worker-thread count, and changing k or the window is a
///     deterministic respecification, exactly like split_factor itself.
///   * Serial fixpoint: with k = 1 the sole child reads "frozen ∪ its own
///     delta", which is every insertion ever made — so a single-child
///     family reproduces the serial stop set byte-for-byte at ANY window,
///     including the degenerate epoch of one trace (window 1).
///   * The paper's rate-limiting pathology is preserved per epoch: a
///     rate-limited hop answers nothing, so it enters no delta and no
///     frozen set, and backward probing keeps draining it — within an
///     epoch by the same trace window, and across epochs forever.
///   * The caller's set must outlive the family and, while the family
///     runs, nothing else may write it (one source per StopSet per run).
///
/// Storage is netbase::FlatSet (open addressing, no per-node allocations):
/// reads on the probe path are one hash probe into the frozen table and at
/// most one into the child's delta. Only set *membership* is ever
/// observable, so FlatSet's layout-dependent iteration order cannot leak
/// into results.
class SnapshotStopSet final : public campaign::EpochBarrier {
 public:
  /// A family over `children` deltas that reads `frozen` as its frozen
  /// epoch set and grows it at every merge.
  SnapshotStopSet(StopSet& frozen, std::size_t children)
      : frozen_(frozen), deltas_(children) {}

  /// Child-side write: insert `addr` as child `child`; returns true if the
  /// address was already visible to that child (frozen epoch set or its
  /// own delta) — the exact "was known" answer the serial stop set gives.
  bool insert(std::size_t child, const Ipv6Addr& addr);

  /// The barrier merge (campaign::EpochBarrier): fold deltas into the
  /// frozen set in canonical child order, clear them, open the next epoch.
  void merge_epoch() override;

 private:
  /// One child's private epoch delta. Cache-line aligned so concurrent
  /// children never false-share each other's table headers.
  struct alignas(64) Delta {
    StopSet inserts;
  };

  StopSet& frozen_;            // the caller's set: immutable during an epoch
  std::vector<Delta> deltas_;  // delta j written only by child j
};

/// Pull-based Doubletree order. The stop set is held by reference so it
/// can outlive one campaign (and pass between cooperating sources run one
/// after another — Doubletree's original distributed-monitor design).
///
/// Splitting: split(k) partitions the target list into contiguous,
/// balanced slices (like SequentialSource) whose children share one
/// SnapshotStopSet over the parent's stop set — an epoch-coupled family
/// under the campaign::EpochBarrier protocol. Each child pauses after every
/// window batch that leaves work behind, and resumes after the family's
/// canonical delta merge. See SnapshotStopSet for the full semantics
/// contract.
class DoubletreeSource final : public campaign::ProbeSource {
 public:
  DoubletreeSource(const DoubletreeConfig& cfg, std::span<const Ipv6Addr> targets,
                   StopSet& stop_set)
      : cfg_(cfg), targets_(targets), stop_(&stop_set) {}
  /// A temporary target list would dangle: the source keeps only a span.
  DoubletreeSource(const DoubletreeConfig&, std::vector<Ipv6Addr>&&, StopSet&) = delete;

  void begin(std::uint64_t now_us) override;
  campaign::Poll next(std::uint64_t now_us) override;
  void on_reply(const campaign::Probe& probe, const wire::DecodedReply& reply,
                std::uint64_t now_us) override;
  void on_probe_done(const campaign::Probe& probe, bool answered,
                     std::uint64_t now_us) override;
  void finish(campaign::ProbeStats& stats) const override;
  /// Forward and backward probes alike target the configured list, so it
  /// is the exact warmup set (stop-set pruning only shrinks what is hit).
  [[nodiscard]] std::span<const Ipv6Addr> route_warm_targets() const override {
    return targets_;
  }

  /// Deterministic over-decomposition as an epoch-snapshotted family:
  /// child i of k traces the i-th contiguous slice of the target list
  /// (balanced to within one target, clamped to one target per child),
  /// all children sharing one SnapshotStopSet over the parent's stop set.
  /// A pure function of (config, k); k = 1 yields one child
  /// that reproduces the serial source byte-for-byte. Children are not
  /// themselves splittable, and an empty target list is unsplittable.
  [[nodiscard]] std::vector<std::unique_ptr<campaign::ProbeSource>> split(
      std::uint64_t k) const override;

  /// Epoch coupling (campaign::ProbeSource protocol): children report
  /// their family's SnapshotStopSet; a serial source reports none.
  [[nodiscard]] campaign::EpochBarrier* epoch_barrier() const override {
    return snap_.get();
  }
  [[nodiscard]] bool epoch_paused() const override { return epoch_paused_; }
  void epoch_resume() override { epoch_paused_ = false; }

 private:
  enum class Phase : std::uint8_t { kForward, kBackward, kDone };
  struct TraceState {
    Phase phase = Phase::kForward;
    std::uint8_t fwd_ttl = 0;
    std::uint8_t bwd_ttl = 0;
    std::uint8_t gaps = 0;
  };
  // Which step of trace idx_ the next poll considers.
  enum class Step : std::uint8_t { kForward, kBackward, kAdvance };

  /// Epoch-family child over slice `targets`, reading/writing `snap` as
  /// child `child`. Only split() constructs these.
  DoubletreeSource(const DoubletreeConfig& cfg, std::span<const Ipv6Addr> targets,
                   std::shared_ptr<SnapshotStopSet> snap, std::size_t child)
      : cfg_(cfg), targets_(targets), snap_(std::move(snap)), child_(child) {}
  DoubletreeSource(const DoubletreeConfig&, std::vector<Ipv6Addr>&&,
                   std::shared_ptr<SnapshotStopSet>, std::size_t) = delete;

  void start_window();
  /// Record `addr` in the stop set (serial or snapshot view); returns true
  /// if it was already known to this source.
  bool stop_insert(const Ipv6Addr& addr);

  DoubletreeConfig cfg_;
  std::span<const Ipv6Addr> targets_;
  StopSet* stop_ = nullptr;               // serial mode: the caller's set
  std::shared_ptr<SnapshotStopSet> snap_; // family mode: the epoch view
  std::size_t child_ = 0;                 // this child's delta index
  std::size_t window_ = 1;
  std::size_t base_ = 0;
  std::size_t count_ = 0;
  std::vector<TraceState> state_;
  std::size_t idx_ = 0;
  Step step_ = Step::kForward;
  bool progress_ = false;       // some probe went out this round
  bool fwd_in_flight_ = false;  // direction of the probe in flight
  bool terminal_ = false;
  bool hit_stop_set_ = false;
  bool exhausted_ = false;
  bool epoch_paused_ = false;   // at a boundary, awaiting the merge
};

}  // namespace beholder6::prober
