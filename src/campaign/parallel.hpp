// campaign/parallel.hpp — the sharded parallel campaign backend.
//
// A ParallelCampaignRunner scales the event-driven core across OS threads
// by partitioning a campaign into shards. Each shard is one ProbeSource
// (typically one cell of a target-space partition, e.g. a yarrp6
// shard/shard_count walk, or one vantage of a multi-vantage deployment)
// driven by its own Pacer (campaign/runner.hpp) over a *private*
// simnet::Network replica: same Topology, same NetworkParams, pristine
// dynamic state. Replica-per-shard is not an approximation dodge — it is
// the real-world semantics of distributed vantage points, which never share
// a router's ICMPv6 rate-limit budget with themselves (each vantage's
// probes traverse the budget independently in wall-clock time).
//
// Work distribution is *below* shard granularity: before any worker
// starts, every shard's source is asked to split(split_factor) into
// deterministic subshards (ProbeSource::split — yarrp6 partitions its
// keyed-permutation walk with the shard/shard_count math, sequential its
// target range, Doubletree its target range over an epoch-snapshotted
// stop set). The expanded (parent shard, subshard) work-unit list is the
// queue workers steal from, so one giant shard no longer bounds the
// campaign's wall-clock — its subshards drain across all threads. The
// queue starts largest unit first (Graham's LPT rule: a unit's estimated
// work is its parent's route_warm_targets() count over the family size,
// ties to the lower unit index), so no long unit is claimed last and left
// to run alone while the other workers idle.
//
// Epoch families — split children sharing barrier-merged state
// (ProbeSource::epoch_barrier, e.g. Doubletree's SnapshotStopSet) — run in
// lockstep epochs: a worker drives such a unit until it pauses at its
// epoch boundary or exhausts, and the family's last arrival merges and
// requeues the survivors. The barrier is cooperative (no blocked threads),
// so a family larger than the pool still progresses. The family
// bookkeeping (SplitFamily, campaign/unit.hpp) is shared with
// CampaignReactor; the worker pool is private to parallel.cpp.
//
// Scaling architecture (see docs/ARCHITECTURE.md "The parallel backend"):
// replicas share an immutable tier — the Topology, one shared_ptr'd
// NetworkParams block, and a read-only route snapshot warmed once by the
// caller before any worker starts — while each *worker* owns one
// cache-line-padded arena holding its mutable Network replica, constructed
// once and reset() between the work units it steals, and the probe buffer
// every unit it drives encodes into. A snapshot pays only
// where two or more replicas read the same routes, so it is warmed only
// from split families whose members all name the same
// ProbeSource::route_warm_targets() (yarrp6 children re-walk their
// parent's list; Doubletree and sequential children partition it), and
// not at all when NetworkParams::route_cache_entries is 0. Every other
// route resolves on demand into the reading replica's private cache.
// Each recording unit appends its replies to its own run, already sorted
// because a unit's clock only moves forward; once the pool joins, the
// run() caller k-way merges the runs into the canonical stream.
//
// Network dynamics ride the immutable tier: NetworkParams::dynamics is a
// shared_ptr'd DynamicsSchedule, so every worker's replica carries the
// same event list, and the arena reset() between work units rewinds each
// replica's schedule cursor to virtual time zero. A work unit therefore
// replays the identical churn whichever worker runs it and in whatever
// order units are stolen — churn is part of the campaign spec, like
// split_factor, and the bit-identical thread/split gates hold with a
// schedule active (tests/campaign/dynamics_determinism_test.cpp pins
// this, and that the schedule really invalidated routes). One caveat
// the snapshot warmup respects: a warmed route snapshot holds pre-event
// paths, so Network::resolve_path skips it for any cell an ECMP
// re-convergence has touched.
//
// Determinism contract: the shard list *and split_factor* fix the work;
// the thread count fixes only the wall-clock. Every work unit's run is a
// pure function of (subshard source, endpoint, pacing, topology seed,
// params), and the merge is a pure function of the per-unit results, in
// canonical (parent shard, subshard index) order:
//
//   * per-unit ProbeStats / NetworkStats fold into their parent shard's
//     slot in subshard order (operator+=), parents fold in shard order,
//   * the global reply stream orders by (subshard virtual timestamp,
//     parent shard id, subshard index, intra-subshard arrival) — a total
//     order independent of scheduling.
//
// So at any fixed split_factor, 1, 2, and 8 threads produce bit-identical
// ParallelResults, and a parallel run is bit-identical to running the
// work units one after another. split_factor itself is part of the
// campaign spec, exactly like yarrp6's shard_count: changing it redraws
// subshard boundaries (separate replicas, restarted clocks), which is a
// different — equally deterministic — campaign.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "campaign/runner.hpp"

namespace beholder6::campaign {

/// One shard of a parallel campaign: a source with its wire identity and
/// pacing, run to exhaustion on a private Network replica (several
/// replicas, one per subshard, when the source splits).
///
/// The optional sink must touch only shard-private state (e.g. a per-shard
/// TraceCollector read after the run) — the merged reply stream in
/// ParallelResult is the thread-safe way to observe the whole campaign.
/// Delivery depends on whether the shard split:
///   * unsplit (split_factor 1, or an unsplittable source): invoked live on
///     the shard's worker thread, per reply, exactly as before;
///   * split: the shard's subshards run concurrently, so live delivery
///     would race — the sink instead runs on the thread that called run(),
///     after every worker has joined, fed by the merge in canonical
///     (virtual time, subshard, arrival) order. Same replies,
///     deterministic order, at any thread count; an exception it throws
///     propagates out of run().
struct Shard {
  ProbeSource* source = nullptr;  ///< order generator; must outlive run()
  Endpoint endpoint;              ///< wire identity probes leave with
  PacingPolicy pacing;            ///< clock advancement around probes
  ResponseSink sink;              ///< shard-confined observer; may be empty
};

/// One reply tagged with its deterministic merge key.
struct ShardReply {
  std::uint64_t virtual_us = 0;  ///< delivery time on the subshard's clock
  std::uint32_t shard = 0;       ///< parent shard: first tie-break
  std::uint32_t subshard = 0;    ///< subshard within it: second tie-break
  wire::DecodedReply reply;      ///< the decoded reply itself
};

/// Wall-clock telemetry for one worker thread of a parallel run. Pure
/// cost reporting (never part of any determinism comparison): benches emit
/// it so scaling regressions are visible, and the cache-line alignment
/// keeps the live counters of adjacent workers off each other's lines.
struct alignas(64) WorkerPerf {
  double busy_seconds = 0.0;  ///< wall time inside unit runs
  /// Always 0: workers no longer stream through a bounded reply ring.
  /// Kept so existing telemetry readers still compile.
  std::uint64_t ring_stalls = 0;
  std::uint64_t ring_high_water = 0;  ///< always 0, like ring_stalls
};

/// Wall-clock telemetry for the post-join merge (the run() caller thread).
struct MergePerf {
  /// Wall time of the k-way merge after the pool joined, split-shard sink
  /// delivery included. Nothing overlaps the workers any more, so
  /// drain_seconds and tail_seconds both equal it.
  double drain_seconds = 0.0;
  double tail_seconds = 0.0;
  /// Replies the merge emitted; equals replies.size() when
  /// ParallelRunOptions::collect_replies is on.
  std::uint64_t replies_merged = 0;
};

/// The deterministically merged outcome of a sharded campaign. Everything
/// here is indexed by *parent* shard: a split shard's subshard results fold
/// into its slot in canonical subshard order before shards fold in shard
/// order.
struct ParallelResult {
  /// Per-shard stats, parallel to the shard list. A split shard's slot is
  /// the operator+= fold of its subshard stats — in particular its
  /// elapsed_virtual_us is the *sum* of subshard clocks (aggregate probing
  /// time), not their concurrent span.
  std::vector<ProbeStats> per_shard;
  /// Per-shard network-replica stats, folded the same way.
  std::vector<simnet::NetworkStats> per_shard_net;
  ProbeStats probe_stats;          ///< sum over shards
  simnet::NetworkStats net_stats;  ///< sum over shards
  /// Every reply of every shard, ordered by (virtual_us, shard, subshard,
  /// intra-subshard arrival).
  std::vector<ShardReply> replies;
  /// Virtual duration of the slowest *work unit* — the campaign's
  /// wall-clock analogue when units really run concurrently. Splitting a
  /// giant shard shrinks exactly this number.
  std::uint64_t elapsed_virtual_us = 0;
  /// Per-worker wall-clock telemetry, indexed by worker (pool size
  /// entries; a run that stayed inline on the caller reports one entry).
  /// Cost reporting only — never compared by the determinism gates.
  std::vector<WorkerPerf> worker_perf;
  /// Merge telemetry (zeros when nothing was recorded).
  MergePerf merge_perf;
  /// Wall time spent warming the shared route snapshot before workers
  /// started, and how many routes it holds. Both are 0 when no split
  /// family's members share their warm targets (unsplit shards, and
  /// families that partition their parent's targets), and when route
  /// caching is off.
  double warmup_seconds = 0.0;
  std::uint64_t warmed_routes = 0;
};

/// Knobs for one ParallelCampaignRunner::run invocation.
struct ParallelRunOptions {
  /// Collect the deterministically merged global reply stream. Campaigns
  /// that consume only per-shard sinks and stats can turn this off to skip
  /// the per-reply recording and the post-join merge entirely
  /// (ParallelResult::replies comes back empty; everything else is
  /// unchanged and still bit-identical across thread counts). Split shards
  /// with sinks still record and merge — their post-join sink delivery
  /// needs the canonical order — but the global stream stays empty.
  bool collect_replies = true;
  /// Deterministic over-decomposition: every shard's source is asked to
  /// split(split_factor) before any worker starts, and workers steal whole
  /// subshards (epoch-coupled families one epoch at a time). Part of the
  /// campaign spec, like yarrp6's shard_count: at a fixed value, results
  /// are bit-identical across thread counts; changing it is a
  /// (deterministic) respecification. 1 — and any source that reports
  /// unsplittable — keeps the classic one-unit-per-shard behavior.
  std::uint64_t split_factor = 1;
};

/// Scales campaigns across OS threads: expands shards into deterministic
/// (parent, subshard) work units via ProbeSource::split, drives each unit's
/// Pacer over a private Network replica, and merges in
/// canonical order — so the shard list + split_factor fix the results and
/// the thread count fixes only the wall-clock (see the file header for the
/// full contract).
class ParallelCampaignRunner {
 public:
  /// Shards run over replicas of Network(topo, params). `n_threads` = 0
  /// uses the hardware concurrency; the thread count never exceeds the
  /// shard count. Thread count affects wall-clock only — results are
  /// bit-identical for any value.
  explicit ParallelCampaignRunner(const simnet::Topology& topo,
                                  simnet::NetworkParams params = {},
                                  unsigned n_threads = 0)
      : topo_(topo),
        params_(std::make_shared<const simnet::NetworkParams>(
            std::move(params))),
        n_threads_(n_threads) {}

  /// Expand shards into (parent, subshard) work units per
  /// options.split_factor, drive every unit to exhaustion across the worker
  /// pool, and merge in canonical order. Sources must be distinct, pristine
  /// objects (a splitting source is never begun itself — its children run
  /// in its place).
  [[nodiscard]] ParallelResult run(const std::vector<Shard>& shards,
                                   ParallelRunOptions options = {}) const;

 private:
  const simnet::Topology& topo_;
  /// Shared immutable parameter block: every replica the run constructs
  /// points at this one object (no per-replica copy — NetworkParams
  /// carries a silent-router set, so copies are real cost at scale).
  std::shared_ptr<const simnet::NetworkParams> params_;
  unsigned n_threads_;
};

}  // namespace beholder6::campaign
