#include "campaign/reactor.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>
#include <utility>

#include "netbase/annotated_mutex.hpp"
#include "netbase/dcheck.hpp"

namespace beholder6::campaign {

namespace {

/// Canonical merged-stream order: (slot_us, tenant, member, seq). The key
/// is unique — seq is monotone per (tenant, member) — so this is a strict
/// total order and any drain mode sorting by it produces one stream.
bool merged_less(const ReactorReply& a, const ReactorReply& b) {
  if (a.slot_us != b.slot_us) return a.slot_us < b.slot_us;
  if (a.tenant != b.tenant) return a.tenant < b.tenant;
  if (a.member != b.member) return a.member < b.member;
  return a.seq < b.seq;
}

/// A campaign-local heap entry for parallel drains: one campaign's members
/// ordered exactly as the global heap would order them among themselves —
/// tenant is constant within a campaign, so (due, member) is the same
/// relative order. That identity is what makes a worker driving the whole
/// campaign reproduce the serial interleaving of its members.
struct LSlot {
  std::uint64_t due_us = 0;
  std::uint32_t member = 0;
  std::uint64_t gen = 0;
  bool operator>(const LSlot& o) const {
    if (due_us != o.due_us) return due_us > o.due_us;
    return member > o.member;
  }
};

using LocalQueue = std::priority_queue<LSlot, std::vector<LSlot>, std::greater<LSlot>>;

}  // namespace

CampaignReactor::CampaignReactor(const simnet::Topology& topo,
                                 simnet::NetworkParams params,
                                 ReactorOptions options)
    : topo_(topo),
      params_(std::make_shared<const simnet::NetworkParams>(std::move(params))),
      options_(options),
      route_keys_(topo) {}

CampaignReactor::~CampaignReactor() = default;

// ---- Admission --------------------------------------------------------------

void CampaignReactor::warm_routes(const CampaignSpec& spec) {
  if (params_->route_cache_entries == 0) return;
  warm_keys_.clear();
  route_keys_.collect(spec.endpoint, spec.source->route_warm_targets(),
                      warm_keys_);
  if (warm_keys_.empty()) return;
  if (!warm_cache_) {
    warm_cache_ = std::make_shared<simnet::RouteCache>();
    snapshot_ = warm_cache_;
  }
  warm_route_cache(topo_, warm_keys_, *warm_cache_);
  warmed_routes_ += warm_keys_.size();
}

Admission CampaignReactor::submit(const CampaignSpec& spec) {
  if (spec.source == nullptr || spec.pacing.pps <= 0.0)
    return {AdmitResult::kRejectedBadSpec, {}};
  if (tenant_index_.find(spec.tenant) != tenant_index_.end())
    return {AdmitResult::kRejectedDuplicateTenant, {}};
  if (active_ + 1 > options_.max_campaigns)
    return {AdmitResult::kRejectedCampaignLimit, {}};
  if (spec.probe_budget > options_.max_reserved_probes - reserved_)
    return {AdmitResult::kRejectedBudgetLimit, {}};

  // Grow the shared snapshot before any member exists: every replica of
  // this (and any later) campaign starts with these routes hot.
  warm_routes(spec);

  auto owner = std::make_unique<Campaign>();
  Campaign& c = *owner;
  c.spec = spec;
  c.index = static_cast<std::uint32_t>(campaigns_.size());
  c.nonce = static_cast<std::uint64_t>(campaigns_.size()) + 1;
  c.start_us = now_us_;
  c.throttled = spec.rate_limit_pps > 0.0;
  if (c.throttled)
    c.bucket = simnet::TokenBucket{spec.rate_limit_pps,
                                   std::max(1.0, spec.rate_limit_burst)};

  // Members: the source whole, or its split children as one campaign. An
  // epoch-coupled family (shared barrier) is the second EpochBarrier
  // client after the parallel backend, driven with the same protocol.
  std::vector<std::unique_ptr<ProbeSource>> children;
  if (spec.split_factor > 1) children = spec.source->split(spec.split_factor);
  const std::size_t n_members = children.empty() ? 1 : children.size();
  c.members.resize(n_members);
  for (std::size_t i = 0; i < n_members; ++i) {
    Member& m = c.members[i];
    if (children.empty()) {
      m.source = spec.source;
    } else {
      m.owned = std::move(children[i]);
      m.source = m.owned.get();
    }
    m.net = std::make_unique<simnet::Network>(topo_, params_);
    if (snapshot_) m.net->set_shared_routes(snapshot_);
    m.runner = std::make_unique<CampaignRunner>(*m.net);
    Campaign* cp = &c;
    const auto mi = static_cast<std::uint32_t>(i);
    m.runner->add(*m.source, spec.endpoint, spec.pacing,
                  [cp, mi](const wire::DecodedReply& r) {
                    Member& mm = cp->members[mi];
                    if (mm.out != nullptr)
                      mm.out->push_back({mm.slot_due, cp->spec.tenant, mi,
                                         mm.next_seq, mm.net->now_us(), r});
                    ++mm.next_seq;
                    if (cp->spec.sink) cp->spec.sink(r);
                  });
  }
  if (!children.empty()) c.barrier = c.members[0].source->epoch_barrier();
  c.live = static_cast<std::uint32_t>(n_members);
  c.waiting = c.live;

  // Seed every member's first global slot.
  for (std::uint32_t i = 0; i < c.members.size(); ++i) {
    Member& m = c.members[i];
    const auto local = m.runner->next_due_us();
    B6_DCHECK(local.has_value(), "fresh runner with no pending slot");
    std::uint64_t due = c.start_us + *local;
    if (c.throttled) due = std::max(due, c.bucket.ready_at_us(due));
    push_global(c, i, due);
  }

  tenant_index_.emplace(spec.tenant, c.index);
  ++active_;
  reserved_ += spec.probe_budget;
  campaigns_.push_back(std::move(owner));
  return {AdmitResult::kAdmitted, {spec.tenant, c.nonce}};
}

// ---- Handle lookup and control ops ------------------------------------------

CampaignReactor::Campaign* CampaignReactor::find(CampaignHandle h) const {
  if (h.nonce == 0 || h.nonce > campaigns_.size()) return nullptr;
  Campaign* c = campaigns_[h.nonce - 1].get();
  return c->spec.tenant == h.tenant ? c : nullptr;
}

bool CampaignReactor::pause(CampaignHandle h) {
  Campaign* c = find(h);
  if (c == nullptr || c->state != CampaignState::kRunning) return false;
  c->state = CampaignState::kPaused;
  for (Member& m : c->members) {
    if (!m.in_heap) continue;  // parked or exhausted; nothing to pull
    // due_global already holds the slot's due; the heap copy goes stale.
    m.in_heap = false;
    ++m.gen;
    --pending_;
  }
  return true;
}

bool CampaignReactor::resume(CampaignHandle h) {
  Campaign* c = find(h);
  if (c == nullptr || c->state != CampaignState::kPaused) return false;
  c->state = CampaignState::kRunning;
  for (std::uint32_t i = 0; i < c->members.size(); ++i) {
    Member& m = c->members[i];
    if (m.exhausted || m.parked) continue;
    push_global(*c, i, m.due_global);  // the saved due: global-time shift only
  }
  return true;
}

bool CampaignReactor::cancel(CampaignHandle h) {
  Campaign* c = find(h);
  if (c == nullptr || (c->state != CampaignState::kRunning &&
                       c->state != CampaignState::kPaused))
    return false;
  retire(*c, CampaignState::kCancelled);
  settle(*c);
  return true;
}

void CampaignReactor::retire(Campaign& c, CampaignState state) {
  c.state = state;
  for (Member& m : c.members) {
    if (m.in_heap) {
      m.in_heap = false;
      --pending_;
    }
    ++m.gen;       // stale-out any heap copy, global or campaign-local
    m.parked = false;  // a retired family owes its barrier nothing
  }
}

void CampaignReactor::settle(Campaign& c) {
  if (c.settled) return;
  if (c.state == CampaignState::kRunning || c.state == CampaignState::kPaused)
    return;
  c.settled = true;
  B6_DCHECK(active_ > 0, "settling a campaign the ledger never admitted");
  --active_;
  reserved_ -= c.spec.probe_budget;  // cancel refunds the in-flight remainder
  const auto it = tenant_index_.find(c.spec.tenant);
  if (it != tenant_index_.end() && it->second == c.index)
    tenant_index_.erase(it);
}

// ---- The scheduling core ----------------------------------------------------

void CampaignReactor::push_global(Campaign& c, std::uint32_t mi,
                                  std::uint64_t due) {
  Member& m = c.members[mi];
  m.due_global = due;
  queue_.push(GSlot{due, c.spec.tenant, mi, c.index, m.gen});
  m.in_heap = true;
  ++pending_;
}

template <typename PushFn>
void CampaignReactor::reschedule_member(Campaign& c, std::uint32_t mi,
                                        PushFn&& push) {
  Member& m = c.members[mi];
  const auto local = m.runner->next_due_us();
  B6_DCHECK(local.has_value(), "rescheduling an exhausted runner");
  std::uint64_t due = c.start_us + *local;
  // The service throttle defers the *global* slot only; the local clock
  // (and with it every reply) is untouched — per-tenant byte-identity.
  if (c.throttled) due = std::max(due, c.bucket.ready_at_us(due));
  m.due_global = due;
  push(mi, due);
}

template <typename PushFn>
void CampaignReactor::family_arrival(Campaign& c, PushFn&& push) {
  B6_DCHECK(c.waiting > 0, "epoch-family member arrived twice in one epoch "
                           "— the EpochBarrier schedule is broken");
  --c.waiting;
  if (c.waiting != 0) return;
  // Last arrival: every member is parked or exhausted, i.e. quiescent —
  // the single-threaded merge window of the EpochBarrier protocol. The
  // merge runs even when the last arrival is the last exhaustion, which is
  // what publishes a Doubletree family's final stop set.
  c.barrier->merge_epoch();
  c.waiting = c.live;
  for (std::uint32_t i = 0; i < c.members.size(); ++i) {
    Member& m = c.members[i];
    if (!m.parked) continue;
    m.parked = false;
    m.source->epoch_resume();
    reschedule_member(c, i, push);
  }
}

template <typename PushFn>
void CampaignReactor::run_slot(Campaign& c, std::uint32_t mi,
                               std::uint64_t slot_due,
                               std::vector<ReactorReply>* out, PushFn&& push) {
  Member& m = c.members[mi];
  m.slot_due = slot_due;
  m.out = out;
  (void)m.runner->step();
  m.out = nullptr;

  // Account this step's probes against the tenant's bucket and budget, at
  // the slot's own due time — tenant-local arithmetic only, which is what
  // keeps a parallel drain's per-campaign replay exact.
  const std::uint64_t sent = m.runner->stats()[0].probes_sent;
  const std::uint64_t delta = sent - m.probes_seen;
  m.probes_seen = sent;
  c.probes_sent += delta;
  if (c.throttled && delta != 0)
    c.bucket.debit(static_cast<double>(delta), slot_due);
  if (c.spec.probe_budget != 0 && c.probes_sent >= c.spec.probe_budget) {
    retire(c, CampaignState::kBudgetExhausted);
    return;
  }

  if (m.runner->done()) {
    m.exhausted = true;
    B6_DCHECK(c.live > 0, "member exhausted twice");
    --c.live;
    if (c.barrier != nullptr) family_arrival(c, push);
    if (c.live == 0 && c.state == CampaignState::kRunning)
      c.state = CampaignState::kFinished;
    return;
  }
  if (c.barrier != nullptr && m.source->epoch_paused()) {
    m.parked = true;
    family_arrival(c, push);
    return;
  }
  reschedule_member(c, mi, push);
}

bool CampaignReactor::step() {
  while (!queue_.empty()) {
    const GSlot s = queue_.top();
    queue_.pop();
    Campaign& c = *campaigns_[s.campaign];
    Member& m = c.members[s.member];
    if (s.gen != m.gen) continue;  // paused, cancelled, or retired: stale
    m.in_heap = false;
    --pending_;
    if (s.due_us > now_us_) now_us_ = s.due_us;
    run_slot(c, s.member, s.due_us, options_.collect_merged ? &merged_ : nullptr,
             [&](std::uint32_t mi, std::uint64_t due) { push_global(c, mi, due); });
    merged_dirty_ = true;
    settle(c);
    return true;
  }
  return false;
}

// ---- Drains -----------------------------------------------------------------

std::size_t CampaignReactor::drain_serial() {
  std::size_t n = 0;
  while (step()) ++n;
  return n;
}

std::size_t CampaignReactor::drain_parallel(unsigned n_threads) {
  // Claimable work: whole running campaigns. Campaigns are
  // scheduling-independent (every scheduling input is tenant-local), so a
  // worker driving one campaign with a campaign-local heap reproduces
  // exactly the member interleaving the global heap would have given it —
  // (due, member) and (due, tenant, member) agree within one tenant.
  struct Unit {
    std::uint32_t campaign = 0;
    std::vector<std::pair<std::uint32_t, std::uint64_t>> seeds;  // (member, due)
  };
  std::vector<Unit> units;
  for (const auto& owner : campaigns_) {
    Campaign& c = *owner;
    if (c.state != CampaignState::kRunning) continue;
    Unit u;
    u.campaign = c.index;
    for (std::uint32_t i = 0; i < c.members.size(); ++i) {
      Member& m = c.members[i];
      if (!m.in_heap) continue;
      u.seeds.emplace_back(i, m.due_global);
      // Detach from the global heap: the campaign now lives on a worker.
      m.in_heap = false;
      ++m.gen;
      --pending_;
    }
    if (!u.seeds.empty()) units.push_back(std::move(u));
  }
  if (units.empty()) return 0;

  std::vector<std::vector<ReactorReply>> bufs(units.size());
  std::vector<std::uint64_t> max_due(units.size(), 0);
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> slots{0};
  std::exception_ptr first_error;
  netbase::Mutex error_mu;

  auto drive = [&](std::size_t ui) {
    Campaign& c = *campaigns_[units[ui].campaign];
    std::vector<ReactorReply>* out =
        options_.collect_merged ? &bufs[ui] : nullptr;
    LocalQueue lq;
    auto push = [&](std::uint32_t mi, std::uint64_t due) {
      lq.push(LSlot{due, mi, c.members[mi].gen});
    };
    for (const auto& [mi, due] : units[ui].seeds) push(mi, due);
    std::size_t n = 0;
    while (!lq.empty()) {
      const LSlot s = lq.top();
      lq.pop();
      Member& m = c.members[s.member];
      if (s.gen != m.gen) continue;  // retired mid-drive (budget cap)
      if (s.due_us > max_due[ui]) max_due[ui] = s.due_us;
      run_slot(c, s.member, s.due_us, out, push);
      ++n;
    }
    slots.fetch_add(n, std::memory_order_relaxed);
  };

  const std::size_t workers = std::min<std::size_t>(units.size(), n_threads);
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    pool.emplace_back([&] {
      for (;;) {
        const std::size_t ui = next.fetch_add(1, std::memory_order_relaxed);
        if (ui >= units.size()) return;
        try {
          drive(ui);
        } catch (...) {
          netbase::MutexLock lock{error_mu};
          if (!first_error) first_error = std::current_exception();
        }
      }
    });
  }
  for (auto& t : pool) t.join();
  if (first_error) std::rethrow_exception(first_error);

  // Post-join, back on the control plane: merge records (any append order —
  // merged() sorts canonically), advance the clock to the latest slot run,
  // and settle retirements in campaign index order.
  for (std::size_t ui = 0; ui < units.size(); ++ui) {
    if (!bufs[ui].empty()) {
      merged_.insert(merged_.end(), bufs[ui].begin(), bufs[ui].end());
      merged_dirty_ = true;
    }
    if (max_due[ui] > now_us_) now_us_ = max_due[ui];
    settle(*campaigns_[units[ui].campaign]);
  }
  return slots.load(std::memory_order_relaxed);
}

std::size_t CampaignReactor::drain() {
  if (options_.n_threads <= 1) return drain_serial();
  return drain_parallel(options_.n_threads);
}

// ---- Observation ------------------------------------------------------------

std::optional<CampaignState> CampaignReactor::state(CampaignHandle h) const {
  const Campaign* c = find(h);
  if (c == nullptr) return std::nullopt;
  return c->state;
}

std::optional<ProbeStats> CampaignReactor::stats(CampaignHandle h) const {
  const Campaign* c = find(h);
  if (c == nullptr) return std::nullopt;
  ProbeStats sum;
  for (const Member& m : c->members) sum += m.runner->stats()[0];
  return sum;
}

void CampaignReactor::sort_merged() {
  if (!merged_dirty_) return;
  merged_dirty_ = false;
  std::sort(merged_.begin(), merged_.end(), merged_less);
#if BEHOLDER6_DCHECK_LEVEL >= 2
  // Expensive sweep: per-(tenant, member) seq must be strictly increasing
  // in canonical order — a violation means two drain modes could not agree.
  for (std::size_t i = 1; i < merged_.size(); ++i) {
    const auto& a = merged_[i - 1];
    const auto& b = merged_[i];
    if (a.tenant == b.tenant && a.member == b.member)
      B6_DCHECK2(a.seq < b.seq, "merged stream: non-monotone per-member seq");
  }
#endif
}

const std::vector<ReactorReply>& CampaignReactor::merged() {
  sort_merged();
  return merged_;
}

void CampaignReactor::reset() {
  campaigns_.clear();
  tenant_index_.clear();
  queue_ = {};
  pending_ = 0;
  now_us_ = 0;
  active_ = 0;
  reserved_ = 0;
  merged_.clear();
  merged_dirty_ = false;
  // The warmed snapshot, its dedup set, and warmed_routes_ survive: the
  // immutable perf tier carries across runs, exactly like Network::reset().
}

}  // namespace beholder6::campaign
