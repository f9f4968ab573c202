#include "campaign/reactor.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <utility>

#include "netbase/dcheck.hpp"
#include "netbase/prefetch.hpp"

namespace beholder6::campaign {

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
  if (in_flight_.contains(spec.tenant))
    return {AdmitResult::kRejectedDuplicateTenant, {}};

  // Grow the shared snapshot before the replica exists: every replica of
  // this (and any later) campaign starts with these routes hot.
  if (params_->route_cache_entries != 0)
    warmed_routes_ +=
        warmer_.add(spec.endpoint, spec.source->route_warm_targets());

  auto owner = std::make_unique<Campaign>(spec);
  Campaign& c = *owner;
  c.start_us = now_us_;
  c.throttled = spec.rate_limit_pps > 0.0;
  if (c.throttled) c.bucket = simnet::TokenBucket{c.budget().burst};

  // Build a fresh replica, whose clock starts at 0, and the Pacer driving
  // the source over it, then seed the first global slot.
  c.live = std::make_unique<Live>(
      topo_, params_,
      Pacer{*spec.source, spec.endpoint, spec.pacing,
            [cp = &c](const wire::DecodedReply& r) {
              Live& l = *cp->live;
              if (l.out != nullptr)
                l.out->push_back({l.slot_due, cp->spec.tenant, l.next_seq,
                                  l.net.now_us(), r});
              ++l.next_seq;
              if (cp->spec.sink) cp->spec.sink(r);
            },
            0});
  c.live->net.set_shared_routes(warmer_.snapshot());
  c.live->out = options_.collect_merged ? &merged_ : nullptr;
  reschedule(c);

  in_flight_.insert(spec.tenant);
  campaigns_.push_back(std::move(owner));
  return {AdmitResult::kAdmitted, {spec.tenant, campaigns_.size()}};
}

// ---- Handle lookup ----------------------------------------------------------

CampaignReactor::Campaign* CampaignReactor::find(CampaignHandle h) const {
  if (h.nonce == 0 || h.nonce > campaigns_.size()) return nullptr;
  Campaign* c = campaigns_[h.nonce - 1].get();
  return c->spec.tenant == h.tenant ? c : nullptr;
}

void CampaignReactor::settle(Campaign& c) {
  if (c.state == CampaignState::kRunning) return;
  in_flight_.erase(c.spec.tenant);
  // Freeze the totals, then free what only a live campaign reads.
  c.totals = c.live->pacer.stats();
  c.live.reset();
  c.spec.sink = nullptr;
}

// ---- The scheduling core ----------------------------------------------------

void CampaignReactor::reschedule(Campaign& c) {
  const Pacer& pacer = c.live->pacer;
  B6_DCHECK(!pacer.done(), "rescheduling an exhausted campaign");
  std::uint64_t due = c.start_us + pacer.due_us();
  // The service throttle defers the *global* slot only; the local clock
  // (and with it every reply) is untouched — per-tenant byte-identity.
  if (c.throttled) due = std::max(due, c.bucket.ready_at_us(c.budget(), due));
  heap_.push_back(GSlot{due, c.spec.tenant, &c});
  std::push_heap(heap_.begin(), heap_.end(), std::greater<GSlot>{});
}

void CampaignReactor::run_slot(Campaign& c, std::uint64_t slot_due) {
  Live& l = *c.live;
  l.slot_due = slot_due;
  const std::uint64_t sent = l.pacer.stats().probes_sent;
  const bool exhausted = !l.pacer.step(l.net, probe_buf_);

  // Debit this step's probes from the tenant's bucket at the slot's own due
  // time — tenant-local arithmetic only, which is what keeps every
  // tenant's timeline equal to its solo run.
  const std::uint64_t probes = l.pacer.stats().probes_sent;
  if (c.throttled && probes != sent)
    c.bucket.debit(c.budget(), static_cast<double>(probes - sent), slot_due);
  if (exhausted)
    c.state = CampaignState::kFinished;
  else
    reschedule(c);
}

// The lookahead pipeline. Right before slot k runs, h[0] is slot k+1,
// the lesser of h[0]'s children is k+2, and k+3 is the least of k+2's
// sibling and k+2's children. Each stage reads only lines an earlier
// stage requested one step ago, so every hint has a whole slot's run
// time to land:
//   A (slot k+3): its Campaign, through the slot's direct locator — no
//     dependent load;
//   B (slot k+2, whose Campaign stage A warmed): the Live block (replica
//     and Pacer) the Campaign points at;
//   C (slot k+1, whose Live block stage B warmed): the replica's reply
//     pool and table headers.
// A guess is wrong only when a reschedule lands ahead of a predicted
// slot, and then the hints cost a few wasted line fills. Every slot in
// the heap belongs to a live campaign, so each Live pointer is set.
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
  if (k2 < n) netbase::prefetch_object(heap_[k2].loc->live.get());
  heap_[0].loc->live->net.prefetch_state();
}

bool CampaignReactor::step() {
  if (heap_.empty()) return false;
  std::pop_heap(heap_.begin(), heap_.end(), std::greater<GSlot>{});
  const GSlot s = heap_.back();
  heap_.pop_back();
  if (s.due_us > now_us_) now_us_ = s.due_us;
  warm_lookahead();
  run_slot(*s.loc, s.due_us);
  merged_dirty_ = true;
  settle(*s.loc);
  return true;
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
  return c->live ? c->live->pacer.stats() : c->totals;
}

const std::vector<ReactorReply>& CampaignReactor::merged() {
  if (!merged_dirty_) return merged_;
  merged_dirty_ = false;
  // Appends follow execution order, which is not canonical: a submit
  // between steps pushes its first slot at the current instant, tied with
  // a slot that already ran and perhaps of a lower tenant id. The key is
  // unique (seq is monotone per tenant), so the order is strict and
  // sorting by it yields one stream.
  std::sort(merged_.begin(), merged_.end(),
            [](const ReactorReply& a, const ReactorReply& b) {
              if (a.slot_us != b.slot_us) return a.slot_us < b.slot_us;
              if (a.tenant != b.tenant) return a.tenant < b.tenant;
              return a.seq < b.seq;
            });
#if BEHOLDER6_DCHECK_LEVEL >= 2
  // Expensive sweep: per-tenant seq must be strictly increasing in
  // canonical order — a violation means a tenant's slots ran out of due
  // order.
  for (std::size_t i = 1; i < merged_.size(); ++i) {
    const auto& a = merged_[i - 1];
    const auto& b = merged_[i];
    if (a.tenant == b.tenant)
      B6_DCHECK2(a.seq < b.seq, "merged stream: non-monotone per-tenant seq");
  }
#endif
  return merged_;
}

}  // namespace beholder6::campaign
