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
#include <unordered_set>
#include <vector>

#include "campaign/probe_source.hpp"
#include "netbase/flat_map.hpp"
#include "prober/prober.hpp"

namespace beholder6::prober {

/// Doubletree knobs on top of the shared lockstep (windowed, burst-paced)
/// configuration: the intermediate start TTL h0 the forward phase opens
/// at, and the epoch length its split children synchronize on.
struct DoubletreeConfig : LockstepConfig {
  std::uint8_t start_ttl = 6;   // h0: heuristic, per-vantage (paper's gripe)
  /// Epoch length of a split family, in completed traces per child; 0
  /// derives it from the effective window (one window batch per epoch).
  /// Like split_factor it is campaign spec: results are a pure function of
  /// (config, split k, epoch length) and thread-count invariant at any
  /// fixed value. Irrelevant to an unsplit source, which has no epochs.
  std::size_t epoch_traces = 0;
};

/// Shared stop-set type: interfaces already observed by some trace. This
/// is the *serial* form — one mutable set read and grown by every trace as
/// it runs, which the caller may keep across campaigns (Doubletree's
/// original cooperating-monitor design). Split families use
/// SnapshotStopSet instead and publish back into this set when they
/// finish.
using StopSet = std::unordered_set<Ipv6Addr, Ipv6AddrHash>;

/// Epoch-snapshotted stop set: the shared state of a split Doubletree
/// family, and the campaign::EpochBarrier that merges it.
///
/// Semantics contract (the "defined semantics" the ROADMAP asked for):
///
///   * The set is layered as one immutable *frozen epoch set* plus one
///     private *write delta* per child. During epoch N, child j reads
///     "frozen ∪ delta j" and writes only delta j — so siblings never
///     observe each other's discoveries mid-epoch, and no cross-thread
///     synchronization happens on the probe path.
///   * merge_epoch() — called by the parallel backend's barrier, single
///     threaded, with every child paused or exhausted — folds the deltas
///     into the frozen set in canonical child order (child 0 first),
///     clears them, and opens epoch N+1.
///   * Everything is therefore a pure function of (parent config, split k,
///     epoch length): the probe streams of a family are bit-identical at
///     any worker-thread count, and changing k or the epoch length is a
///     deterministic respecification, exactly like split_factor itself.
///   * Serial fixpoint: with k = 1 the sole child reads "frozen ∪ its own
///     delta", which is every insertion ever made — so a single-child
///     family reproduces the serial stop set byte-for-byte at ANY
///     epoch length, including the degenerate epoch of one trace.
///   * The paper's rate-limiting pathology is preserved per epoch: a
///     rate-limited hop answers nothing, so it enters no delta and no
///     frozen set, and backward probing keeps draining it — within an
///     epoch by the same trace window, and across epochs forever.
///   * When the last child exhausts, the final barrier merge publishes the
///     union into the caller's StopSet the parent was constructed over, so
///     a set kept across campaigns holds the same aggregate a serial run
///     would have produced.
///
/// Storage is netbase::FlatSet (open addressing, no per-node allocations):
/// reads on the probe path are one hash probe into the frozen table and at
/// most one into the child's delta. Only set *membership* is ever
/// observable, so FlatSet's layout-dependent iteration order cannot leak
/// into results.
class SnapshotStopSet final : public campaign::EpochBarrier {
 public:
  /// A family over `children` deltas, frozen-set-seeded from `initial`,
  /// publishing back into `publish` (may be null) once every child has
  /// exhausted.
  SnapshotStopSet(const StopSet& initial, std::size_t children,
                  StopSet* publish);

  /// Child-side write: insert `addr` as child `child`; returns true if the
  /// address was already visible to that child (frozen epoch set or its
  /// own delta) — the exact "was known" answer the serial stop set gives.
  bool insert(std::size_t child, const Ipv6Addr& addr);

  /// Child-side read: is `addr` visible to `child` this epoch?
  [[nodiscard]] bool contains(std::size_t child, const Ipv6Addr& addr) const;

  /// Child `child` has exhausted its slice; once every child has, the next
  /// merge_epoch() publishes the union into the serial StopSet.
  void mark_exhausted(std::size_t child);

  /// The barrier merge (campaign::EpochBarrier): fold deltas into the
  /// frozen set in canonical child order, clear them, open the next epoch.
  void merge_epoch() override;

  /// Completed barrier merges so far (the current epoch number).
  [[nodiscard]] std::uint64_t epoch() const { return epoch_no_; }
  /// Size of the frozen epoch set (excludes unmerged deltas).
  [[nodiscard]] std::size_t frozen_size() const { return frozen_.size(); }
  /// Number of child deltas in the family.
  [[nodiscard]] std::size_t children() const { return deltas_.size(); }

 private:
  using Flat = netbase::FlatSet<Ipv6Addr, Ipv6AddrHash>;
  /// One child's private epoch delta. Cache-line aligned so concurrent
  /// children never false-share each other's table headers.
  struct alignas(64) Delta {
    Flat inserts;
    bool exhausted = false;
  };

  Flat frozen_;                // immutable during an epoch
  std::vector<Delta> deltas_;  // delta j written only by child j
  StopSet* publish_;           // serial set to fold into at the end
  std::uint64_t epoch_no_ = 0;
  bool published_ = false;
};

/// Pull-based Doubletree order. The stop set is held by reference so it
/// can outlive one campaign (and be shared between cooperating sources —
/// Doubletree's original distributed-monitor design).
///
/// Splitting: split(k) partitions the target list into contiguous,
/// balanced slices (like SequentialSource) whose children share one
/// SnapshotStopSet seeded from the parent's current stop set — an
/// epoch-coupled family under the campaign::EpochBarrier protocol. Each
/// child pauses at the first window-batch boundary where at least
/// DoubletreeConfig::epoch_traces of its traces have completed since its
/// epoch opened, and resumes after the family's canonical delta merge.
/// See SnapshotStopSet for the full semantics contract.
class DoubletreeSource final : public campaign::ProbeSource {
 public:
  DoubletreeSource(const DoubletreeConfig& cfg, std::span<const Ipv6Addr> targets,
                   StopSet& stop_set)
      : cfg_(cfg), targets_(targets), legacy_(&stop_set) {}

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
  /// all children sharing one SnapshotStopSet seeded from the parent's
  /// stop set. A pure function of (config, k); k = 1 yields one child
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

  void start_window();
  /// Record `addr` in the stop set (serial or snapshot view); returns true
  /// if it was already known to this source.
  bool stop_insert(const Ipv6Addr& addr);

  DoubletreeConfig cfg_;
  std::span<const Ipv6Addr> targets_;
  StopSet* legacy_ = nullptr;             // serial mode: the shared set
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
  std::size_t epoch_len_ = 0;     // traces per epoch (family mode)
  std::size_t epoch_done_ = 0;    // traces completed this epoch
  bool epoch_paused_ = false;     // at a boundary, awaiting the merge
  bool reported_exhausted_ = false;
};

}  // namespace beholder6::prober
