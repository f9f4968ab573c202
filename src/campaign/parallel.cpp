#include "campaign/parallel.hpp"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <queue>
#include <span>
#include <thread>
#include <utility>

#include "netbase/annotated_mutex.hpp"
#include "netbase/dcheck.hpp"
#include "netbase/huge_alloc.hpp"

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

/// One split family: a shard's source run whole, or the children of its
/// split(k), owned here and epoch-coupled if they return an EpochBarrier.
/// The family keeps the barrier's arrival bookkeeping: each live member
/// arrives once per epoch, by parking at its epoch boundary or by
/// exhausting, and the last arrival runs merge_epoch() with every member
/// quiescent. Not thread-safe: the Scheduler serializes arrivals under its
/// mutex.
class SplitFamily {
 public:
  /// Members: `source` whole when `k` <= 1 or the source is unsplittable,
  /// else the children of `source.split(k)`.
  SplitFamily(ProbeSource& source, std::uint64_t k) : whole_(&source) {
    if (k > 1) owned_ = source.split(k);
    // Epoch-coupled children all return their family's one barrier; a
    // mixed family would be a broken split() implementation.
    if (!owned_.empty()) barrier_ = owned_[0]->epoch_barrier();
    state_.assign(std::max<std::size_t>(1, owned_.size()), kActive);
    live_ = waiting_ = state_.size();
    if (barrier_ != nullptr) resumed_.reserve(state_.size());
  }

  [[nodiscard]] std::size_t size() const { return state_.size(); }
  [[nodiscard]] ProbeSource& member(std::size_t i) const {
    return owned_.empty() ? *whole_ : *owned_[i];
  }
  /// The children's shared barrier; null for a free-running family.
  [[nodiscard]] EpochBarrier* barrier() const { return barrier_; }

  /// Member `i` arrives, `exhausted` or parked. The epoch's last arrival
  /// runs merge_epoch() — even as the last exhaustion, whose merge leaves a
  /// Doubletree family's final deltas in the caller's stop set — clears
  /// the parked members' pauses and returns their indexes in member order,
  /// for the caller to reschedule; any other arrival returns an empty span.
  std::span<const std::uint32_t> arrive(std::size_t i, bool exhausted) {
    B6_DCHECK(state_[i] == kActive, "split-family member arrived twice in "
                                     "one epoch — the barrier schedule broke");
    B6_DCHECK(exhausted || barrier_ != nullptr,
              "a free-running member parked at an epoch barrier");
    B6_DCHECK(waiting_ > 0, "more barrier arrivals than live family members");
    state_[i] = exhausted ? kExhausted : kParked;
    if (exhausted) --live_;
    if (--waiting_ != 0) return {};
    // Last arrival: every member is parked or exhausted, i.e. quiescent —
    // the single-threaded merge window of the EpochBarrier protocol.
    waiting_ = live_;
    resumed_.clear();
    if (barrier_ == nullptr) return {};
    barrier_->merge_epoch();
    for (std::uint32_t m = 0; m < state_.size(); ++m) {
      if (state_[m] != kParked) continue;
      state_[m] = kActive;
      member(m).epoch_resume();
      resumed_.push_back(m);
    }
    return resumed_;
  }

 private:
  enum State : std::uint8_t { kActive, kParked, kExhausted };

  ProbeSource* whole_;                               // run when unsplit
  std::vector<std::unique_ptr<ProbeSource>> owned_;  // split children
  EpochBarrier* barrier_ = nullptr;
  std::vector<State> state_;
  std::size_t live_ = 0;     // members not yet exhausted
  std::size_t waiting_ = 0;  // live members yet to arrive this epoch
  std::vector<std::uint32_t> resumed_;
};

/// One stealable work unit: one member of a shard's split family. The pool
/// runs a free-running unit start-to-finish on whichever worker claims it,
/// and an epoch-family unit one epoch per claim. Units are expanded
/// deterministically before any worker starts, so the unit list — like the
/// shard list — is part of the fixed campaign spec, and the claim order
/// never touches results. A family's members are consecutive units,
/// member 0 first, and its index in the family list is its parent's.
struct WorkUnit {
  ProbeSource* source = nullptr;  // a member of the shard's SplitFamily
  std::size_t parent = 0;         // index into the shard and family lists
  std::uint32_t subshard = 0;     // canonical index within the parent
  bool epoch = false;             // its family merges at an epoch barrier
  bool record = false;            // append this unit's replies to its run
  bool live_sink = false;         // deliver the parent sink per reply, inline
  bool sink_on_merge = false;     // the post-join merge delivers it instead
  /// Estimated work (the parent's warm-target count over its family
  /// size), which orders the first claims.
  std::size_t work = 0;
};

/// What one unit's run produces, keyed by unit index — workers share
/// nothing mutable but the pool's queue state (under its mutex).
struct UnitResult {
  ProbeStats stats;
  simnet::NetworkStats net;
  /// Recorded replies in arrival order. A unit's clock only moves forward
  /// (an epoch unit keeps its replica across barriers), so virtual_us never
  /// decreases along the run: every run is already sorted for the merge.
  /// A run past 1 MB is its own 2 MB-aligned mapping; the merge hands its
  /// pages back as it drains them (release_drained) and unmaps it once
  /// empty.
  using ReplyRun = std::vector<ShardReply, netbase::HugePageAllocator<ShardReply>>;
  ReplyRun run;
};

/// The merge hands a run's drained front back to the kernel each time it
/// has consumed another kReleaseStep bytes of it, so a reply is resident
/// in about one place at a time: in its run until the merge reaches it,
/// then in the merged stream. The runs drain together in virtual-time
/// order, so a run unmapped only once empty stays resident almost to the
/// end of the merge: table7_merged (48 runs) peaked at 207.1 MiB that way
/// and at 151.3 MiB with the release (10/10 runs). At 64 KiB (1,024
/// replies per madvise) at most 3 MiB stays resident past its 48 merge
/// fronts, and the traced merge_drain_s kept inside its run-to-run spread
/// (0.089 s against 0.099 s before it, 5 runs each).
constexpr std::size_t kReleaseStep = std::size_t{64} << 10;

/// Release the pages of `run` that the merge has drained (its first
/// `drained` replies) in whole kReleaseSteps; `released` counts the bytes
/// from the run's start already handed back. A mapped run starts 2 MB
/// aligned, so every step is whole pages. A run under 1 MB is a heap
/// block: release_pages keeps the page that straddles each step boundary,
/// and the block's free returns the rest.
void release_drained(UnitResult::ReplyRun& run, std::size_t drained,
                     std::size_t& released) {
  const std::size_t upto = drained * sizeof(ShardReply) / kReleaseStep * kReleaseStep;
  if (upto == released) return;
  netbase::release_pages(reinterpret_cast<std::byte*>(run.data()) + released,
                         upto - released);
  released = upto;
}

/// A unit's execution state between claims: the Pacer driving its source
/// (built on first claim, dropped once the unit exhausts) and, for an
/// epoch-family unit, the replica it owns across epochs. A free unit runs
/// over its worker's arena replica instead.
struct UnitState {
  std::unique_ptr<simnet::Network> own_net;
  std::optional<Pacer> pacer;
};

/// Per-worker mutable arena: the worker's private Network replica
/// (constructed once, on first claim, and reset() between the units it
/// steals — so one worker pays one replica build however many units it
/// runs), the probe buffer every unit it drives encodes into, and its perf
/// counters. Cache-line alignment keeps one worker's live counters off its
/// neighbours' lines.
struct alignas(64) WorkerArena {
  std::unique_ptr<simnet::Network> net;
  simnet::Packet probe_buf;
  WorkerPerf perf;
};

/// The warm targets every member of a split family names, compared by
/// value; empty for a family of one and for members that name different
/// targets (children that partition their parent's list).
std::span<const Ipv6Addr> shared_warm_targets(const SplitFamily& family) {
  if (family.size() < 2) return {};
  const auto targets = family.member(0).route_warm_targets();
  for (std::size_t j = 1; j < family.size(); ++j)
    if (!std::ranges::equal(family.member(j).route_warm_targets(), targets))
      return {};
  return targets;
}

/// drive(worker, unit) runs a claimed unit until it exhausts (true) or
/// parks at its family's epoch barrier (false).
using UnitDrive = std::function<bool(std::size_t worker, std::size_t unit)>;

/// A FIFO of claimable unit indexes plus the families' barrier arrivals.
/// The queue starts largest unit first (Graham's LPT rule, ties to the
/// lower unit index), so no long unit is left to run alone at the end;
/// units a barrier merge resumes rejoin at the back, in member order.
/// The B6_GUARDED_BY annotations make the Clang thread-safety pass (CI
/// `thread-safety` job) prove every touch of the queue, the families and
/// the error slot happens under the mutex. Per-unit state (run()'s unit
/// results and states) stays outside: one worker owns a unit between
/// claim() and report(), and the mutex hand-off in those calls publishes
/// its writes to the next claimant — a transfer the analysis cannot
/// express, so the contract lives here in words.
class Scheduler {
 public:
  Scheduler(std::span<const WorkUnit> units, std::span<SplitFamily> families)
      : units_(units), families_(families), unfinished_(units.size()) {
    for (std::size_t u = 0; u < units_.size(); ++u) ready_.push_back(u);
    std::ranges::sort(ready_, [this](std::size_t a, std::size_t b) {
      const std::size_t wa = units_[a].work, wb = units_[b].work;
      return wa != wb ? wa > wb : a < b;
    });
  }

  /// Claim the next ready unit; blocks while the queue is empty. Returns
  /// nullopt once every unit has exhausted or a worker has failed.
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

  /// Report a claimed unit back, exhausted (`done`) or parked. A family
  /// unit's report is its barrier arrival: every sibling reported in under
  /// this mutex, so the last arrival's merge is single-threaded and sees
  /// the siblings' delta writes.
  void report(std::size_t u, bool done) B6_EXCLUDES(mu_) {
    netbase::MutexLock lock{mu_};
    if (done) --unfinished_;
    const WorkUnit& unit = units_[u];
    if (unit.epoch) {
      SplitFamily& family = families_[unit.parent];
      for (const std::uint32_t m : family.arrive(unit.subshard, done))
        ready_.push_back(u - unit.subshard + m);
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
  const std::span<const WorkUnit> units_;  // immutable during the run

  netbase::Mutex mu_;
  netbase::CondVar cv_;
  std::deque<std::size_t> ready_ B6_GUARDED_BY(mu_);
  std::span<SplitFamily> families_ B6_GUARDED_BY(mu_);
  std::size_t unfinished_ B6_GUARDED_BY(mu_);
  std::exception_ptr error_ B6_GUARDED_BY(mu_);
};

/// The worker pool: `workers` workers (inline on the caller when there is
/// one, else std::jthreads) claim units from a FIFO that starts largest
/// unit first; a parked unit is requeued when its family's last arrival
/// resumes it.
/// Returns once every unit has exhausted, or rethrows the first failure
/// after the join. The claim order never touches results: free units are
/// independent, and epoch merges follow the barrier protocol.
void run_pool(std::span<const WorkUnit> units, std::span<SplitFamily> families,
              std::size_t workers, const UnitDrive& drive) {
  Scheduler sched{units, families};
  auto worker = [&](std::size_t w) {
    while (const auto claimed = sched.claim()) {
      bool done = false;
      try {
        done = drive(w, *claimed);
      } catch (...) {
        sched.fail(std::current_exception());
        break;
      }
      sched.report(*claimed, done);
    }
  };
  if (workers <= 1) {
    worker(0);  // one worker: run on the caller, no threads
  } else {
    std::vector<std::jthread> pool;  // joins on scope exit
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) pool.emplace_back(worker, w);
  }
  if (const auto error = sched.error()) std::rethrow_exception(error);
}

}  // namespace

ParallelResult ParallelCampaignRunner::run(const std::vector<Shard>& shards,
                                           ParallelRunOptions options) const {
  ParallelResult result;
  result.per_shard.resize(shards.size());
  result.per_shard_net.resize(shards.size());

  // ---- Deterministic over-decomposition -----------------------------------
  // Every shard becomes one split family (family index = shard index) and
  // every family member one work unit. A split shard's sink cannot run
  // live (its subshards execute concurrently), so such units record their
  // replies and the post-join merge delivers the sink in canonical order
  // on the caller thread. The members of an epoch-coupled family are held
  // back by the pool between epochs.
  std::vector<SplitFamily> families;
  families.reserve(shards.size());
  std::vector<WorkUnit> units;
  for (std::size_t i = 0; i < shards.size(); ++i) {
    const Shard& shard = shards[i];
    const SplitFamily& family =
        families.emplace_back(*shard.source, options.split_factor);
    // A single-member family is still one unit: its sink stays live.
    const bool split = family.size() > 1;
    const bool merge_sink = split && shard.sink != nullptr;
    const bool epoch = family.barrier() != nullptr;
    const std::size_t work =
        shard.source->route_warm_targets().size() / family.size();
    for (std::uint32_t j = 0; j < family.size(); ++j)
      units.push_back({&family.member(j), i, j, epoch,
                       options.collect_replies || merge_sink,
                       !split && shard.sink != nullptr, merge_sink, work});
  }
  std::vector<UnitResult> unit_results(units.size());
  std::vector<UnitState> states(units.size());

  // ---- The shared immutable tier: a route snapshot where replicas share it
  // A snapshot pays only when two or more replicas read the same routes,
  // i.e. for split families whose members all name the same warm targets
  // (shared_warm_targets); every other route resolves on demand into the
  // reading replica's private cache. Before any worker exists, those
  // families' routes resolve serially (RouteWarmer, as in the reactor)
  // into one read-only RouteCache that every replica reads through a
  // shared_ptr-to-const. Its content is a pure function of the shard list
  // and split_factor (keys collected in canonical shard/target order,
  // first seen wins), its entries are exactly what Topology::path returns,
  // and it is never written again, so any number of workers hit it
  // lock-free. route_cache_entries == 0 means "no route caching at all",
  // so it disables the snapshot too.
  std::shared_ptr<const simnet::RouteCache> snapshot;
  if (params_->route_cache_entries != 0) {
    const auto warm_t0 = PerfClock::now();
    RouteWarmer warmer{topo_};
    for (std::size_t i = 0; i < shards.size(); ++i)
      result.warmed_routes +=
          warmer.add(shards[i].endpoint, shared_warm_targets(families[i]));
    snapshot = warmer.snapshot();
    if (snapshot) result.warmup_seconds = secs_since(warm_t0);
  }

  // ---- Worker pool over per-worker arenas --------------------------------
  const std::size_t max_threads =
      n_threads_ ? n_threads_ : std::max(1u, std::thread::hardware_concurrency());
  const std::size_t workers =
      std::max<std::size_t>(1, std::min(units.size(), max_threads));
  std::vector<WorkerArena> arenas(workers);

  // Drive unit `u` on worker `w` until it exhausts (true: its results are
  // final) or pauses at its epoch barrier (false). A free unit never
  // pauses, so its one claim runs it to exhaustion over the worker's arena
  // replica (constructed on first claim, reset() afterwards, which also
  // empties its private route cache, so that cache holds only the current
  // unit's routes); an epoch-family unit owns a replica that persists
  // across its epochs and travels with it between workers.
  auto drive_unit = [&](std::size_t w, std::size_t u) -> bool {
    WorkerArena& arena = arenas[w];
    const auto unit_t0 = PerfClock::now();
    const WorkUnit& unit = units[u];
    const Shard& shard = shards[unit.parent];
    UnitState& state = states[u];
    UnitResult& out = unit_results[u];
    auto& replica = unit.epoch ? state.own_net : arena.net;
    if (!state.pacer) {
      if (replica) {
        replica->reset();  // only an arena replica outlives a unit
      } else {
        replica = std::make_unique<simnet::Network>(topo_, params_);
        replica->set_shared_routes(snapshot);
      }
      ResponseSink sink;
      if (unit.record) {
        sink = [&unit, &shard, &out,
                net = replica.get()](const wire::DecodedReply& r) {
          out.run.push_back({net->now_us(),
                             static_cast<std::uint32_t>(unit.parent),
                             unit.subshard, r});
          if (unit.live_sink) shard.sink(r);
        };
      } else if (unit.live_sink) {
        sink = shard.sink;
      }
      state.pacer.emplace(*unit.source, shard.endpoint, shard.pacing,
                          std::move(sink), 0);  // a fresh replica's clock
    }
    simnet::Network& net = *replica;
    Pacer& pacer = *state.pacer;
    // Step until exhaustion or an epoch pause (a barrier arrival).
    while (!pacer.done() && !unit.source->epoch_paused())
      pacer.step(net, arena.probe_buf);
    const bool done = !unit.source->epoch_paused();
    B6_DCHECK(done || unit.epoch,
              "a free-running unit paused at an epoch barrier");
    if (done) {
      out.stats = pacer.stats();
      out.net = net.stats();
      // Release the Pacer and any owned replica as soon as the unit is
      // done.
      state = {};
    }
    arena.perf.busy_seconds += secs_since(unit_t0);
    return done;
  };
  run_pool(units, families, workers, drive_unit);

  result.worker_perf.reserve(workers);
  for (const auto& arena : arenas) result.worker_perf.push_back(arena.perf);
  // The merge reads no arena: free every worker's replica, route cache and
  // buckets before it runs.
  std::vector<WorkerArena>().swap(arenas);

  // ---- The post-join k-way merge (caller thread) --------------------------
  // Every recording unit left one run, sorted by virtual_us. Units are
  // expanded parent-major, so the unit index order IS the (shard,
  // subshard) lexicographic order, and a min-heap over the run heads keyed
  // on (virtual_us, unit) emits the canonical (virtual time, shard,
  // subshard, arrival) order: ties at one instant go to the lower unit,
  // and each unit's replies leave in arrival order. Split shards' sinks
  // fire here, after the pool has joined, so a throwing sink propagates out
  // of run() like any other error. Each run's drained front goes back to
  // the kernel as the merge passes it (release_drained).
  std::size_t recorded = 0;
  for (const auto& out : unit_results) recorded += out.run.size();
  if (recorded != 0) {
    const auto merge_t0 = PerfClock::now();
    if (options.collect_replies) result.replies.reserve(recorded);
    using Head = std::pair<std::uint64_t, std::size_t>;  // (virtual_us, unit)
    std::priority_queue<Head, std::vector<Head>, std::greater<>> heads;
    std::vector<std::size_t> next(units.size(), 0);
    std::vector<std::size_t> released(units.size(), 0);  // bytes handed back
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
      if (next[u] < run.size()) {
        heads.emplace(run[next[u]].virtual_us, u);
        release_drained(run, next[u], released[u]);
      } else {
        UnitResult::ReplyRun().swap(run);  // drained: unmap it now
      }
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
