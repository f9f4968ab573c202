#include "campaign/reactor.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <utility>

#include "netbase/dcheck.hpp"
#include "netbase/prefetch.hpp"

namespace beholder6::campaign {

namespace {

/// Canonical merged-stream order: (slot_us, tenant, member, seq). The key
/// is unique — seq is monotone per (tenant, member) — so this is a strict
/// total order and sorting by it yields one stream.
bool merged_less(const ReactorReply& a, const ReactorReply& b) {
  if (a.slot_us != b.slot_us) return a.slot_us < b.slot_us;
  if (a.tenant != b.tenant) return a.tenant < b.tenant;
  if (a.member != b.member) return a.member < b.member;
  return a.seq < b.seq;
}

}  // namespace

CampaignReactor::CampaignReactor(const simnet::Topology& topo,
                                 simnet::NetworkParams params,
                                 ReactorOptions options)
    : topo_(topo),
      params_(std::make_shared<const simnet::NetworkParams>(std::move(params))),
      options_(options),
      warmer_(topo) {}

CampaignReactor::~CampaignReactor() = default;

// ---- Admission --------------------------------------------------------------

Admission CampaignReactor::submit(const CampaignSpec& spec) {
  if (spec.source == nullptr || !std::isfinite(spec.pacing.pps) ||
      spec.pacing.pps <= 0.0)
    return {AdmitResult::kRejectedBadSpec, {}};
  if (tenant_index_.find(spec.tenant) != tenant_index_.end())
    return {AdmitResult::kRejectedDuplicateTenant, {}};
  if (active_ + 1 > options_.max_campaigns)
    return {AdmitResult::kRejectedCampaignLimit, {}};
  if (spec.probe_budget > options_.max_reserved_probes - reserved_)
    return {AdmitResult::kRejectedBudgetLimit, {}};

  // Grow the shared snapshot before any member exists: every replica of
  // this (and any later) campaign starts with these routes hot.
  if (params_->route_cache_entries != 0)
    warmed_routes_ +=
        warmer_.add(spec.endpoint, spec.source->route_warm_targets());

  // Members: the source whole, or its split children as one campaign —
  // an epoch-coupled family if they share a barrier.
  auto owner = std::make_unique<Campaign>(spec);
  Campaign& c = *owner;
  c.index = static_cast<std::uint32_t>(campaigns_.size());
  c.start_us = now_us_;
  c.throttled = spec.rate_limit_pps > 0.0;
  if (c.throttled)
    c.bucket = simnet::TokenBucket{spec.rate_limit_pps,
                                   std::max(1.0, spec.rate_limit_burst)};

  // Build every member — a fresh replica, whose clock starts at 0, and
  // the Pacer driving the member's source over it — then seed its first
  // global slot.
  c.members.resize(c.family->size());
  for (std::uint32_t mi = 0; mi < c.members.size(); ++mi) {
    Member& m = c.members[mi];
    m.campaign = &c;
    m.live = std::make_unique<Live>(
        topo_, params_,
        Pacer{c.family->member(mi), spec.endpoint, spec.pacing,
              [cp = &c, mi](const wire::DecodedReply& r) {
                Live& l = *cp->members[mi].live;
                if (l.out != nullptr)
                  l.out->push_back({l.slot_due, cp->spec.tenant, mi,
                                    l.next_seq, l.net.now_us(), r});
                ++l.next_seq;
                if (cp->spec.sink) cp->spec.sink(r);
              },
              0});
    m.live->net.set_shared_routes(warmer_.snapshot());
    m.live->out = options_.collect_merged ? &merged_ : nullptr;
    reschedule_member(c, mi);
  }

  tenant_index_.emplace(spec.tenant, c.index);
  ++active_;
  reserved_ += spec.probe_budget;
  campaigns_.push_back(std::move(owner));
  return {AdmitResult::kAdmitted, {spec.tenant, nonce_base_ + c.index + 1}};
}

// ---- Handle lookup and control ops ------------------------------------------

CampaignReactor::Campaign* CampaignReactor::find(CampaignHandle h) const {
  if (h.nonce <= nonce_base_ || h.nonce - nonce_base_ > campaigns_.size())
    return nullptr;
  Campaign* c = campaigns_[h.nonce - nonce_base_ - 1].get();
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
  // The saved dues: a global-time shift only. Parked members wait for
  // their family's barrier instead.
  for (std::uint32_t i = 0; i < c->members.size(); ++i)
    if (c->family->active(i)) push_global(*c, i, c->members[i].due_global);
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
    ++m.gen;  // stale-out any heap copy
  }
}

void CampaignReactor::settle(Campaign& c) {
  if (c.settled) return;
  if (c.state == CampaignState::kRunning || c.state == CampaignState::kPaused)
    return;
  B6_DCHECK(!c.executing, "settling a campaign mid-slot (cancel from a sink?)");
  c.settled = true;
  B6_DCHECK(active_ > 0, "settling a campaign the ledger never admitted");
  --active_;
  reserved_ -= c.spec.probe_budget;  // cancel refunds the in-flight remainder
  const auto it = tenant_index_.find(c.spec.tenant);
  if (it != tenant_index_.end() && it->second == c.index)
    tenant_index_.erase(it);
  // Freeze the totals, then free what only a live campaign reads.
  for (Member& m : c.members) {
    c.totals += m.live->pacer.stats();
    m.live.reset();
  }
  c.family.reset();
  c.spec.sink = nullptr;
}

// ---- The scheduling core ----------------------------------------------------

void CampaignReactor::push_global(Campaign& c, std::uint32_t mi,
                                  std::uint64_t due) {
  Member& m = c.members[mi];
  m.due_global = due;
  heap_.push_back(GSlot{due, c.spec.tenant, m.gen, &m, mi});
  std::push_heap(heap_.begin(), heap_.end(), std::greater<GSlot>{});
  m.in_heap = true;
  ++pending_;
}

void CampaignReactor::reschedule_member(Campaign& c, std::uint32_t mi) {
  const Pacer& pacer = c.members[mi].live->pacer;
  B6_DCHECK(!pacer.done(), "rescheduling an exhausted member");
  std::uint64_t due = c.start_us + pacer.due_us();
  // The service throttle defers the *global* slot only; the local clock
  // (and with it every reply) is untouched — per-tenant byte-identity.
  if (c.throttled) due = std::max(due, c.bucket.ready_at_us(due));
  push_global(c, mi, due);
}

void CampaignReactor::run_slot(Campaign& c, std::uint32_t mi,
                               std::uint64_t slot_due) {
  Live& l = *c.members[mi].live;
  l.slot_due = slot_due;
  // settle()'s DCHECK reads the flag; a throwing step clears it too.
  struct Clear { bool& flag; ~Clear() { flag = false; } } clear{c.executing};
  c.executing = true;
  const std::uint64_t sent = l.pacer.stats().probes_sent;
  const bool exhausted = !l.pacer.step(l.net, probe_buf_);

  // Account this step's probes against the tenant's bucket and budget, at
  // the slot's own due time — tenant-local arithmetic only, which is what
  // keeps every tenant's timeline equal to its solo run.
  const std::uint64_t delta = l.pacer.stats().probes_sent - sent;
  c.probes_sent += delta;
  if (c.throttled && delta != 0)
    c.bucket.debit(static_cast<double>(delta), slot_due);
  if (c.spec.probe_budget != 0 && c.probes_sent >= c.spec.probe_budget) {
    retire(c, CampaignState::kBudgetExhausted);
    return;
  }

  // A family arrival — exhaustion, or a park at the epoch barrier — runs
  // the barrier protocol, whose last arrival merges and names the parked
  // members to resume.
  if (exhausted || c.family->at_barrier(mi)) {
    for (const std::uint32_t r : c.family->arrive(mi, exhausted))
      reschedule_member(c, r);
    if (c.family->live() == 0 && c.state == CampaignState::kRunning)
      c.state = CampaignState::kFinished;
    return;
  }
  reschedule_member(c, mi);
}

// The lookahead pipeline. Right before slot k runs, h[0] is slot k+1,
// the lesser of h[0]'s children is k+2, and k+3 is the least of k+2's
// sibling and k+2's children. Each stage reads only lines an earlier
// stage requested one step ago, so every hint has a whole slot's run
// time to land:
//   A (slot k+3): its Member, through the slot's direct locator — no
//     dependent load;
//   B (slot k+2, whose Member stage A warmed): the Campaign and the Live
//     block (replica and Pacer) the Member points at;
//   C (slot k+1, whose Live block stage B warmed): the replica's reply
//     pool and table headers.
// A guess is wrong only when a reschedule lands ahead of a predicted
// slot, and then the hints cost a few wasted line fills. Stale slots are
// warmed like live ones: their Member shells are alive until reset(), and
// a settled member's null Live pointer hints nothing.
void CampaignReactor::warm_lookahead() const {
  const std::size_t n = heap_.size();
  if (n == 0) return;
  // The earlier of two heap positions; out-of-range positions lose.
  auto earlier = [&](std::size_t i, std::size_t j) {
    if (j >= n) return i;
    if (i >= n) return j;
    return heap_[i] > heap_[j] ? j : i;
  };
  const std::size_t k2 = earlier(1, 2);
  const std::size_t k3 = earlier(3 - k2, earlier(2 * k2 + 1, 2 * k2 + 2));
  if (k3 < n) netbase::prefetch_object(heap_[k3].loc);
  if (k2 < n) {
    const Member& b = *heap_[k2].loc;
    netbase::prefetch_object(b.campaign);
    netbase::prefetch_object(b.live.get());
  }
  if (const Live* c = heap_[0].loc->live.get()) c->net.prefetch_state();
}

bool CampaignReactor::step() {
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<GSlot>{});
    const GSlot s = heap_.back();
    heap_.pop_back();
    Member& m = *s.loc;
    if (s.gen != m.gen) continue;  // paused, cancelled, or retired: stale
    Campaign& c = *m.campaign;
    m.in_heap = false;
    --pending_;
    if (s.due_us > now_us_) now_us_ = s.due_us;
    warm_lookahead();
    run_slot(c, s.member, s.due_us);
    merged_dirty_ = true;
    settle(c);
    return true;
  }
  return false;
}

std::size_t CampaignReactor::drain() {
  std::size_t n = 0;
  while (step()) ++n;
  return n;
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
  if (c->settled) return c->totals;
  ProbeStats sum;
  for (const Member& m : c->members) sum += m.live->pacer.stats();
  return sum;
}

void CampaignReactor::sort_merged() {
  if (!merged_dirty_) return;
  merged_dirty_ = false;
  // Appends follow execution order, which is not canonical: resume() and
  // barrier resumes push dues earlier than slots that already ran.
  std::sort(merged_.begin(), merged_.end(), merged_less);
#if BEHOLDER6_DCHECK_LEVEL >= 2
  // Expensive sweep: per-(tenant, member) seq must be strictly increasing
  // in canonical order — a violation means a member's slots ran out of
  // due order.
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
  nonce_base_ += campaigns_.size();  // keeps every older handle stale
  campaigns_.clear();
  tenant_index_.clear();
  heap_ = {};
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
