#include "campaign/unit.hpp"

#include <algorithm>
#include <deque>
#include <exception>
#include <optional>
#include <thread>
#include <utility>

#include "netbase/annotated_mutex.hpp"
#include "netbase/dcheck.hpp"

namespace beholder6::campaign {

SplitFamily::SplitFamily(ProbeSource& source, std::uint64_t k)
    : whole_(&source) {
  if (k > 1) owned_ = source.split(k);
  // Epoch-coupled children all return their family's one barrier; a mixed
  // family would be a broken split() implementation.
  if (!owned_.empty()) barrier_ = owned_[0]->epoch_barrier();
  state_.assign(std::max<std::size_t>(1, owned_.size()), kActive);
  live_ = waiting_ = state_.size();
  if (barrier_ != nullptr) resumed_.reserve(state_.size());
}

std::span<const std::uint32_t> SplitFamily::arrive(std::size_t i,
                                                   bool exhausted) {
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

std::unique_ptr<simnet::Network> make_replica(
    const simnet::Topology& topo,
    const std::shared_ptr<const simnet::NetworkParams>& params,
    const std::shared_ptr<const simnet::RouteCache>& snapshot) {
  auto net = std::make_unique<simnet::Network>(topo, params);
  net->set_shared_routes(snapshot);
  return net;
}

void MemberRunner::start(
    const simnet::Topology& topo,
    const std::shared_ptr<const simnet::NetworkParams>& params,
    const std::shared_ptr<const simnet::RouteCache>& snapshot,
    simnet::Network* borrowed, ProbeSource& source, const Endpoint& endpoint,
    const PacingPolicy& pacing, ResponseSink sink) {
  if (borrowed == nullptr) own_net = make_replica(topo, params, snapshot);
  net = borrowed != nullptr ? borrowed : own_net.get();
  runner = std::make_unique<CampaignRunner>(*net);
  runner->add(source, endpoint, pacing, std::move(sink));
}

namespace {

/// A FIFO of claimable unit indexes plus the families' barrier arrivals.
/// The B6_GUARDED_BY annotations make the Clang thread-safety pass (CI
/// `thread-safety` job) prove every touch of the queue, the families and
/// the error slot happens under the mutex. Per-unit state (the front end's
/// results and runners) stays outside: one worker owns a unit between
/// claim() and report(), and the mutex hand-off in those calls publishes
/// its writes to the next claimant — a transfer the analysis cannot
/// express, so the contract lives here in words.
class Scheduler {
 public:
  Scheduler(std::span<const PoolUnit> units, std::span<SplitFamily> families)
      : units_(units), families_(families), unfinished_(units.size()) {
    for (std::size_t u = 0; u < units_.size(); ++u) ready_.push_back(u);
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
    const PoolUnit& pu = units_[u];
    if (pu.family >= 0) {
      SplitFamily& family = families_[static_cast<std::size_t>(pu.family)];
      for (const std::uint32_t m : family.arrive(pu.member, done))
        ready_.push_back(u - pu.member + m);
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
  const std::span<const PoolUnit> units_;  // immutable during the run

  netbase::Mutex mu_;
  netbase::CondVar cv_;
  std::deque<std::size_t> ready_ B6_GUARDED_BY(mu_);
  std::span<SplitFamily> families_ B6_GUARDED_BY(mu_);
  std::size_t unfinished_ B6_GUARDED_BY(mu_);
  std::exception_ptr error_ B6_GUARDED_BY(mu_);
};

}  // namespace

void run_pool(std::span<const PoolUnit> units, std::span<SplitFamily> families,
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

}  // namespace beholder6::campaign
