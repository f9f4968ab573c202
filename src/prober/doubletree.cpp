#include "prober/doubletree.hpp"

#include <algorithm>

#include "netbase/dcheck.hpp"

namespace beholder6::prober {

// ---- SnapshotStopSet --------------------------------------------------------

bool SnapshotStopSet::insert(std::size_t child, const Ipv6Addr& addr) {
  // The frozen set is immutable this epoch, so a hit there needs no delta
  // entry; a miss records the discovery privately. Either way the return
  // value is "was this already visible to *this child*" — the same answer
  // the serial set's insert().second gives.
  B6_DCHECK(child < deltas_.size(),
            "SnapshotStopSet write from a child outside the family — delta "
            "isolation (and with it the epoch merge order) is broken");
  if (frozen_.contains(addr)) return true;
  return !deltas_[child].inserts.insert(addr).second;
}

void SnapshotStopSet::merge_epoch() {
  // Canonical order: child 0's delta first. Set membership is insertion
  // order independent, but the canon makes the merge — like every other
  // parallel-backend fold — a pure function of the children's results.
  for (auto& delta : deltas_) {
    // beholder6: lint-allow(unordered-iter): folding into a set — only
    // membership is ever observable, never the insertion sequence
    for (const auto& addr : delta.inserts) frozen_.insert(addr);
    delta.inserts.clear();  // keeps capacity: next epoch inserts allocate-free
  }
}

// ---- DoubletreeSource -------------------------------------------------------

void DoubletreeSource::begin(std::uint64_t) {
  window_ = cfg_.effective_window();
  base_ = 0;
  start_window();
}

void DoubletreeSource::start_window() {
  if (base_ >= targets_.size()) {
    exhausted_ = true;
    return;
  }
  count_ = std::min(window_, targets_.size() - base_);
  state_.assign(count_, {});
  for (auto& s : state_) {
    s.fwd_ttl = cfg_.start_ttl;
    s.bwd_ttl = cfg_.start_ttl > 1 ? static_cast<std::uint8_t>(cfg_.start_ttl - 1) : 0;
  }
  idx_ = 0;
  step_ = Step::kForward;
  progress_ = false;
}

bool DoubletreeSource::stop_insert(const Ipv6Addr& addr) {
  return snap_ ? snap_->insert(child_, addr) : !stop_->insert(addr).second;
}

campaign::Poll DoubletreeSource::next(std::uint64_t) {
  while (!exhausted_) {
    if (idx_ == count_) {
      // Round complete. Keep going while some trace made progress; the
      // RoundEnd lets the pacer idle out the burst's rate budget either way.
      if (progress_) {
        idx_ = 0;
        step_ = Step::kForward;
        progress_ = false;
      } else {
        // Window batch done: `count_` traces finished together. In family
        // mode an epoch is one window batch: it closes here whenever work
        // is left, and the backend barriers before the next poll.
        base_ += window_;
        start_window();
        epoch_paused_ = snap_ && !exhausted_;
      }
      return campaign::Poll::round_end();
    }
    auto& s = state_[idx_];
    switch (step_) {
      case Step::kForward:
        step_ = Step::kBackward;
        if (s.phase == Phase::kForward) {
          if (s.fwd_ttl > cfg_.max_ttl) {
            s.phase = Phase::kBackward;
          } else {
            fwd_in_flight_ = true;
            terminal_ = false;
            progress_ = true;
            return campaign::Poll::emit({targets_[base_ + idx_], s.fwd_ttl, false});
          }
        }
        break;

      case Step::kBackward:
        // The same round iteration may probe backward right after the
        // forward step flipped the phase — Doubletree wastes no rounds.
        if (s.phase == Phase::kBackward && s.bwd_ttl > 0) {
          step_ = Step::kAdvance;
          fwd_in_flight_ = false;
          hit_stop_set_ = false;
          progress_ = true;
          return campaign::Poll::emit({targets_[base_ + idx_], s.bwd_ttl, false});
        }
        if (s.phase == Phase::kBackward) s.phase = Phase::kDone;  // bwd_ttl == 0
        step_ = Step::kForward;
        ++idx_;
        break;

      case Step::kAdvance:
        step_ = Step::kForward;
        ++idx_;
        break;
    }
  }
  return campaign::Poll::exhausted();
}

void DoubletreeSource::on_reply(const campaign::Probe&,
                                const wire::DecodedReply& reply, std::uint64_t) {
  if (fwd_in_flight_) {
    terminal_ = reply.type != wire::Icmp6Type::kTimeExceeded ||
                reply.responder == targets_[base_ + idx_];
    stop_insert(reply.responder);
  } else {
    // Stop when the responder is already known: the rest of the backward
    // path was seen by an earlier trace. A rate-limited (silent) hop never
    // triggers this — the pathology the paper observed: Doubletree keeps
    // draining the very buckets that are already empty. In family mode
    // "known" means the frozen epoch set plus this child's own delta, so
    // the same holds per epoch.
    hit_stop_set_ = stop_insert(reply.responder);
  }
}

void DoubletreeSource::on_probe_done(const campaign::Probe&, bool answered,
                                     std::uint64_t) {
  auto& s = state_[idx_];
  if (fwd_in_flight_) {
    ++s.fwd_ttl;
    if (terminal_ || (!answered && ++s.gaps >= cfg_.gap_limit)) {
      s.phase = Phase::kBackward;
      s.gaps = 0;
    }
    if (answered) s.gaps = 0;
  } else {
    --s.bwd_ttl;
    if (hit_stop_set_) s.phase = Phase::kDone;
  }
}

void DoubletreeSource::finish(campaign::ProbeStats& stats) const {
  // Each family child owns a disjoint slice, so child contributions sum to
  // the parent's count — the split() contract.
  stats.traces = targets_.size();
}

std::vector<std::unique_ptr<campaign::ProbeSource>> DoubletreeSource::split(
    std::uint64_t k) const {
  std::vector<std::unique_ptr<campaign::ProbeSource>> children;
  // Children are one-shot work units, not campaign specs: they never
  // re-split. An empty list has no work to partition.
  if (k < 1 || targets_.empty() || snap_) return children;
  const std::uint64_t n = targets_.size();
  const std::uint64_t pieces = std::min<std::uint64_t>(k, n);
  auto snap = std::make_shared<SnapshotStopSet>(
      *stop_, static_cast<std::size_t>(pieces));
  children.reserve(pieces);
  for (std::uint64_t i = 0; i < pieces; ++i) {
    const auto lo = static_cast<std::size_t>(i * n / pieces);
    const auto hi = static_cast<std::size_t>((i + 1) * n / pieces);
    children.emplace_back(new DoubletreeSource(
        cfg_, targets_.subspan(lo, hi - lo), snap, static_cast<std::size_t>(i)));
  }
  return children;
}

}  // namespace beholder6::prober
