#include "campaign/parallel.hpp"

#include <algorithm>
#include <chrono>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <queue>
#include <thread>
#include <utility>

#include "netbase/annotated_mutex.hpp"
#include "netbase/dcheck.hpp"

namespace beholder6::campaign {

namespace {

// All std::chrono readings in this file feed WorkerPerf / MergePerf /
// warmup_seconds — wall-clock *cost* telemetry that never influences a
// probe, a reply, or a merge decision, so the determinism contract is
// untouched (the bit-identical gates compare none of these fields).
// beholder6: lint-allow(raw-random): wall-clock cost telemetry only, never result-bearing
using PerfClock = std::chrono::steady_clock;

double secs_since(PerfClock::time_point t0) {
  return std::chrono::duration<double>(PerfClock::now() - t0).count();
}

/// One stealable work unit: a whole (sub)shard. Free-running units are run
/// start-to-finish on whichever worker claims them. Units of an *epoch
/// family* (split children sharing an EpochBarrier) are claimed the same
/// way but run one epoch at a time: a worker drives the unit until it
/// pauses at its epoch boundary (or exhausts), and the family's last
/// arrival performs the canonical barrier merge and requeues the rest.
/// Units are expanded deterministically before any worker starts, so the
/// unit list — like the shard list — is part of the fixed campaign spec,
/// and the claim order never touches results.
struct WorkUnit {
  ProbeSource* source = nullptr;  // borrowed (unsplit) or owned by `owned`
  std::size_t parent = 0;         // index into the shard list
  std::uint32_t subshard = 0;     // canonical index within the parent
  bool record = false;            // append this unit's replies to its run
  bool live_sink = false;         // deliver the parent sink per reply, inline
  bool sink_on_merge = false;     // the post-join merge delivers it instead
  std::int32_t family = -1;       // epoch family index, -1 = free-running
};

/// What one unit's run produces, keyed by unit index — workers share
/// nothing mutable but the scheduler's queue state (under its mutex).
struct UnitResult {
  ProbeStats stats;
  simnet::NetworkStats net;
  /// Recorded replies in arrival order. A unit's clock only moves forward
  /// (an epoch unit keeps its replica across barriers), so virtual_us never
  /// decreases along the run: every run is already sorted for the merge.
  std::vector<ShardReply> run;
};

/// Per-worker mutable arena: the worker's private Network replica
/// (constructed once, on first claim, and reset() between the units it
/// steals — so one worker pays one replica build however many units it
/// runs) plus its perf counters. Cache-line alignment keeps one worker's
/// live counters off its neighbours' lines.
struct alignas(64) WorkerArena {
  std::optional<simnet::Network> net;
  WorkerPerf perf;
};

/// A unit's runner and the replica it drives. A free-running unit borrows
/// its worker's arena replica for the one claim that runs it to
/// exhaustion; an epoch-family unit owns a replica that persists across
/// its epochs and travels with it between workers (created lazily by the
/// first claimant, handed over through the scheduler mutex).
struct UnitContext {
  std::unique_ptr<simnet::Network> own_net;  // epoch-family units only
  simnet::Network* net = nullptr;
  std::unique_ptr<CampaignRunner> runner;  // borrows *net
};

/// One split family driven in lockstep epochs. `arrived`/`active` are
/// touched only under the scheduler mutex; the merge itself runs with
/// every member quiescent, so the family's shared stop-set state needs no
/// locking of its own.
struct EpochFamily {
  EpochBarrier* barrier = nullptr;
  std::vector<std::size_t> members;  // unit indexes, canonical order
  std::size_t arrived = 0;           // members paused/exhausted this epoch
  // Barrier-protocol invariant (DCHECK): each *live* member arrives exactly
  // once per epoch. Indexed by the unit's subshard (stable across the
  // exhausted-member erasures that shrink `members`).
  std::vector<char> arrived_flags;
};

/// Scheduler: a FIFO of claimable unit indexes plus the epoch-barrier
/// bookkeeping, everything mutable guarded by one mutex. Free units leave
/// the queue once; epoch units cycle through it once per epoch, re-enqueued
/// by their family's barrier merge. The claim order never touches results
/// (free units are independent; epoch merges are ordered by the barrier
/// protocol, not by arrival).
///
/// This is the class form of what used to be loose locals in run(): the
/// B6_GUARDED_BY annotations make the Clang thread-safety pass
/// (CI `thread-safety` job) prove that every touch of the queue, the
/// arrival flags, and the error slot happens under the mutex. Per-unit
/// state (unit_results, contexts) deliberately stays outside: exactly one
/// worker owns a unit between claim() and report(), and the mutex
/// hand-off in those two calls is what publishes its writes to the next
/// claimant — a transfer the analysis cannot express, so the contract
/// lives here in words instead of an annotation.
class Scheduler {
 public:
  /// `units` must outlive the scheduler and is immutable during the run.
  Scheduler(const std::vector<WorkUnit>& units,
            std::vector<EpochFamily> families)
      : units_(units),
        families_(std::move(families)),
        unfinished_(units.size()),
        exhausted_(units.size(), 0) {
    for (std::size_t u = 0; u < units_.size(); ++u) ready_.push_back(u);
  }

  /// Claim the next ready unit; blocks while the queue is empty. Returns
  /// nullopt once the campaign is finished or a worker has failed.
  std::optional<std::size_t> claim() B6_EXCLUDES(mu_) {
    netbase::MutexLock lock{mu_};
    // Explicit wait loop: the guarded reads must sit in this annotated
    // method, not in a wait-predicate lambda (lambda bodies are analyzed
    // as separate functions with no capability context).
    while (ready_.empty() && unfinished_ != 0 && !error_) cv_.wait(lock);
    if (error_ || unfinished_ == 0) return std::nullopt;
    const std::size_t u = ready_.front();
    ready_.pop_front();
    return u;
  }

  /// Report a claimed unit back: exhausted (`done`) or paused at its epoch
  /// barrier. The family's last arrival merges the epoch deltas (every
  /// sibling is quiescent — it paused or exhausted before reporting in
  /// under this mutex, which is also what makes its delta writes visible
  /// here) and requeues the survivors.
  void report(std::size_t u, bool done) B6_EXCLUDES(mu_) {
    netbase::MutexLock lock{mu_};
    if (done) {
      exhausted_[u] = 1;
      --unfinished_;
    }
    if (units_[u].family >= 0) {
      EpochFamily& fam = families_[static_cast<std::size_t>(units_[u].family)];
      B6_DCHECK(fam.arrived_flags[units_[u].subshard] == 0,
                "epoch-family unit reported a barrier arrival twice in one "
                "epoch — the EpochBarrier schedule is broken");
      fam.arrived_flags[units_[u].subshard] = 1;
      B6_DCHECK(fam.arrived < fam.members.size(),
                "more barrier arrivals than live family members");
      if (++fam.arrived == fam.members.size()) {
        fam.barrier->merge_epoch();
        fam.arrived = 0;
        // Drop exhausted members in place (a lambda for erase_if would
        // fall outside the analysis' capability context).
        std::size_t keep = 0;
        for (const std::size_t m : fam.members)
          if (exhausted_[m] == 0) fam.members[keep++] = m;
        fam.members.resize(keep);
        for (const std::size_t m : fam.members) {
          fam.arrived_flags[units_[m].subshard] = 0;
          ready_.push_back(m);
        }
      }
    }
    cv_.notify_all();
  }

  /// Record the first failure and wake everyone so the pool drains.
  void fail(std::exception_ptr e) B6_EXCLUDES(mu_) {
    netbase::MutexLock lock{mu_};
    if (!error_) error_ = std::move(e);
    cv_.notify_all();
  }

  /// The first failure, if any. Meant for after the pool has joined, but
  /// takes the mutex so it is safe (and provably so) at any point.
  [[nodiscard]] std::exception_ptr error() B6_EXCLUDES(mu_) {
    netbase::MutexLock lock{mu_};
    return error_;
  }

 private:
  const std::vector<WorkUnit>& units_;  // immutable during the run

  netbase::Mutex mu_;
  netbase::CondVar cv_;
  std::deque<std::size_t> ready_ B6_GUARDED_BY(mu_);
  std::vector<EpochFamily> families_ B6_GUARDED_BY(mu_);
  std::size_t unfinished_ B6_GUARDED_BY(mu_);
  std::vector<char> exhausted_ B6_GUARDED_BY(mu_);
  std::exception_ptr error_ B6_GUARDED_BY(mu_);
};

}  // namespace

ParallelResult ParallelCampaignRunner::run(const std::vector<Shard>& shards,
                                           ParallelRunOptions options) const {
  ParallelResult result;
  result.per_shard.resize(shards.size());
  result.per_shard_net.resize(shards.size());

  // ---- Deterministic over-decomposition -----------------------------------
  // Expand every shard into work units up front. A split shard's sink
  // cannot run live (its subshards execute concurrently), so such units
  // record their replies and the post-join merge delivers the sink in
  // canonical order on the caller thread. Split children that share an
  // EpochBarrier form an epoch family, scheduled in lockstep epochs.
  std::vector<std::unique_ptr<ProbeSource>> owned;
  std::vector<WorkUnit> units;
  std::vector<EpochFamily> families;
  for (std::size_t i = 0; i < shards.size(); ++i) {
    const Shard& shard = shards[i];
    auto children = options.split_factor > 1
                        ? shard.source->split(options.split_factor)
                        : std::vector<std::unique_ptr<ProbeSource>>{};
    if (children.empty()) {
      units.push_back({shard.source, i, 0, options.collect_replies,
                       shard.sink != nullptr, false, -1});
    } else {
      // A single-child "split" is still one unit: its sink stays live.
      const bool split = children.size() > 1;
      // Epoch-coupled children all return their family's one barrier; a
      // mixed family would be a broken split() implementation.
      EpochBarrier* barrier = children[0]->epoch_barrier();
      std::int32_t family = -1;
      if (barrier != nullptr) {
        family = static_cast<std::int32_t>(families.size());
        families.push_back(
            {barrier, {}, 0, std::vector<char>(children.size(), 0)});
      }
      for (std::uint32_t j = 0; j < children.size(); ++j) {
        if (family >= 0)
          families.back().members.push_back(units.size());
        const bool merge_sink = split && shard.sink != nullptr;
        units.push_back({children[j].get(), i, j,
                         options.collect_replies || merge_sink,
                         !split && shard.sink != nullptr, merge_sink, family});
        owned.push_back(std::move(children[j]));
      }
    }
  }
  std::vector<UnitResult> unit_results(units.size());
  std::vector<UnitContext> contexts(units.size());

  // ---- The shared immutable tier: warm the route snapshot once -----------
  // Before any worker exists, resolve every route the campaign will hit
  // into one read-only RouteCache and hand a shared_ptr-to-const of it to
  // every replica. The snapshot's content is a pure function of the shard
  // list (keys are collected in canonical shard/target order, first seen
  // wins), its entries are exactly what Topology::path returns, and after
  // this block it is never written again — which is what lets any number
  // of workers hit it lock-free. route_cache_entries == 0 means "this
  // campaign wants no route caching at all" (the legacy-path benchmark
  // measures exactly that), so it disables the snapshot too.
  const std::size_t max_threads =
      n_threads_ ? n_threads_ : std::max(1u, std::thread::hardware_concurrency());
  std::shared_ptr<const simnet::RouteCache> snapshot;
  if (options.share_route_snapshot && params_->route_cache_entries != 0 &&
      !units.empty()) {
    const auto warm_t0 = PerfClock::now();
    std::vector<simnet::Network::ProbeRouteKey> keys;
    RouteKeyCollector collector{topo_};
    for (const Shard& shard : shards)
      collector.collect(shard.endpoint, shard.source->route_warm_targets(),
                        keys);
    if (!keys.empty()) {
      // Serial, through the warm-up the reactor uses: Topology::path_into
      // copies a precomputed chain into one reused scratch Path, so no
      // per-key Path is held and no thread pool is needed to resolve.
      auto cache = std::make_shared<simnet::RouteCache>();
      warm_route_cache(topo_, keys, *cache);
      snapshot = std::move(cache);
    }
    result.warmed_routes = keys.size();
    result.warmup_seconds = secs_since(warm_t0);
  }

  // ---- Worker pool over per-worker arenas --------------------------------
  Scheduler sched{units, std::move(families)};

  const std::size_t workers =
      std::max<std::size_t>(1, std::min(units.size(), max_threads));
  std::vector<WorkerArena> arenas(workers);

  // The worker body. `w` indexes the worker's arena. Claims units and
  // drives each over a replica: a free unit over the arena's (constructed
  // on first claim, reset() afterwards — the immutable tier makes reset
  // cheap because the warmed routes never leave the shared snapshot), an
  // epoch-family unit over its own.
  auto worker = [&](std::size_t w) {
    WorkerArena& arena = arenas[w];

    // Drive a unit until it exhausts (true: its results are final) or
    // pauses at its epoch barrier (false). A free unit is simply one that
    // never pauses, so its first claim runs it to exhaustion.
    auto drive_unit = [&](std::size_t u) -> bool {
      const WorkUnit& unit = units[u];
      const Shard& shard = shards[unit.parent];
      UnitContext& ctx = contexts[u];
      UnitResult& out = unit_results[u];
      if (!ctx.runner) {
        if (unit.family >= 0) {
          ctx.own_net = std::make_unique<simnet::Network>(topo_, params_);
          ctx.own_net->set_shared_routes(snapshot);
          ctx.net = ctx.own_net.get();
        } else {
          if (!arena.net) {
            arena.net.emplace(topo_, params_);
            arena.net->set_shared_routes(snapshot);
          } else {
            arena.net->reset();
          }
          ctx.net = &*arena.net;
        }
        ctx.runner = std::make_unique<CampaignRunner>(*ctx.net);
        ResponseSink sink;
        if (unit.record) {
          sink = [&unit, &shard, &out,
                  net = ctx.net](const wire::DecodedReply& r) {
            out.run.push_back({net->now_us(),
                               static_cast<std::uint32_t>(unit.parent),
                               unit.subshard, r});
            if (unit.live_sink) shard.sink(r);
          };
        } else if (unit.live_sink) {
          sink = shard.sink;
        }
        ctx.runner->add(*unit.source, shard.endpoint, shard.pacing,
                        std::move(sink));
      }
      if (unit.source->epoch_paused()) unit.source->epoch_resume();
      while (!ctx.runner->done()) {
        ctx.runner->step();
        if (unit.source->epoch_paused()) {
          B6_DCHECK(unit.family >= 0,
                    "a free-running unit paused at an epoch barrier");
          return false;  // barrier arrival
        }
      }
      out.stats = ctx.runner->stats()[0];
      out.net = ctx.net->stats();
      // Release the runner and any owned replica as soon as the unit is
      // done (runner first — it borrows the network).
      ctx.runner.reset();
      ctx.own_net.reset();
      return true;
    };

    while (const auto claimed = sched.claim()) {
      const std::size_t u = *claimed;
      const auto unit_t0 = PerfClock::now();
      bool done = false;
      try {
        done = drive_unit(u);
      } catch (...) {
        sched.fail(std::current_exception());
        break;
      }
      ++arena.perf.units_run;
      arena.perf.busy_seconds += secs_since(unit_t0);
      sched.report(u, done);
    }
  };

  if (workers == 1) {
    worker(0);  // one worker: run on the caller, no threads
  } else {
    std::vector<std::jthread> pool;  // joins on scope exit
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) pool.emplace_back(worker, w);
  }
  if (const auto error = sched.error()) std::rethrow_exception(error);

  result.worker_perf.reserve(workers);
  for (const auto& arena : arenas) result.worker_perf.push_back(arena.perf);

  // ---- The post-join k-way merge (caller thread) --------------------------
  // Every recording unit left one run, sorted by virtual_us. Units are
  // expanded parent-major, so the unit index order IS the (shard,
  // subshard) lexicographic order, and a min-heap over the run heads keyed
  // on (virtual_us, unit) emits the canonical (virtual time, shard,
  // subshard, arrival) order: ties at one instant go to the lower unit,
  // and each unit's replies leave in arrival order. Split shards' sinks
  // fire here, after the pool has joined, so a throwing sink propagates out
  // of run() like any other error.
  std::size_t recorded = 0;
  for (const auto& out : unit_results) recorded += out.run.size();
  if (recorded != 0) {
    const auto merge_t0 = PerfClock::now();
    if (options.collect_replies) result.replies.reserve(recorded);
    using Head = std::pair<std::uint64_t, std::size_t>;  // (virtual_us, unit)
    std::priority_queue<Head, std::vector<Head>, std::greater<>> heads;
    std::vector<std::size_t> next(units.size(), 0);
    for (std::size_t u = 0; u < units.size(); ++u)
      if (!unit_results[u].run.empty())
        heads.emplace(unit_results[u].run.front().virtual_us, u);
    while (!heads.empty()) {
      const std::size_t u = heads.top().second;
      heads.pop();
      auto& run = unit_results[u].run;
      const ShardReply& rep = run[next[u]++];
      if (units[u].sink_on_merge) shards[units[u].parent].sink(rep.reply);
      if (options.collect_replies) result.replies.push_back(rep);
      if (next[u] < run.size())
        heads.emplace(run[next[u]].virtual_us, u);
      else
        std::vector<ShardReply>().swap(run);  // drained: free it now
    }
    const double merge_seconds = secs_since(merge_t0);
    result.merge_perf = {merge_seconds, merge_seconds, recorded};
  }

  // ---- Canonical-order stats fold ----------------------------------------
  // Units are listed in (parent shard, subshard) order, so one forward
  // fold realizes "subshards fold into their parent in subshard order;
  // parents fold in shard order".
  for (std::size_t u = 0; u < units.size(); ++u) {
    auto& out = unit_results[u];
    result.per_shard[units[u].parent] += out.stats;
    result.per_shard_net[units[u].parent] += out.net;
    result.elapsed_virtual_us =
        std::max(result.elapsed_virtual_us, out.stats.elapsed_virtual_us);
  }
  for (std::size_t i = 0; i < shards.size(); ++i) {
    result.probe_stats += result.per_shard[i];
    result.net_stats += result.per_shard_net[i];
  }

#if BEHOLDER6_DCHECK_LEVEL >= 2
  // Expensive sweep: the documented total order — (vtime, shard,
  // subshard, arrival) strictly nondecreasing — must hold over the whole
  // merged stream.
  for (std::size_t r = 1; r < result.replies.size(); ++r) {
    const ShardReply& p = result.replies[r - 1];
    const ShardReply& q = result.replies[r];
    B6_DCHECK2(p.virtual_us < q.virtual_us ||
                   (p.virtual_us == q.virtual_us &&
                    (p.shard < q.shard ||
                     (p.shard == q.shard && p.subshard <= q.subshard))),
               "merged reply stream violates the canonical "
               "(vtime, shard, subshard) order");
  }
#endif
  return result;
}

}  // namespace beholder6::campaign
