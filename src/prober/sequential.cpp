#include "prober/sequential.hpp"

#include <algorithm>

namespace beholder6::prober {

void SequentialSource::begin(std::uint64_t) {
  window_ = cfg_.effective_window();
  if (targets_.empty() || cfg_.max_ttl == 0) {
    exhausted_ = true;
    return;
  }
  base_ = 0;
  start_window();
}

void SequentialSource::start_window() {
  if (base_ >= targets_.size()) {
    exhausted_ = true;
    return;
  }
  count_ = std::min(window_, targets_.size() - base_);
  state_.assign(count_, {});
  ttl_ = 1;
  idx_ = 0;
}

campaign::Poll SequentialSource::next(std::uint64_t) {
  if (exhausted_) return campaign::Poll::exhausted();
  while (idx_ < count_ && state_[idx_].done) ++idx_;
  if (idx_ < count_) {
    current_ = idx_++;
    terminal_ = false;
    round_open_ = true;
    return campaign::Poll::emit({targets_[base_ + current_], ttl_, false});
  }
  // Lockstep round complete: advance to the next TTL round, or the next
  // window once every trace is done or the TTL horizon is reached; then
  // let the pacer idle out this round's rate budget.
  if (round_open_) {
    round_open_ = false;
    const bool all_done = std::all_of(state_.begin(), state_.end(),
                                      [](const TraceState& s) { return s.done; });
    if (all_done || ttl_ == cfg_.max_ttl) {
      base_ += window_;
      start_window();
    } else {
      ++ttl_;
      idx_ = 0;
    }
    return campaign::Poll::round_end();
  }
  exhausted_ = true;
  return campaign::Poll::exhausted();
}

void SequentialSource::on_reply(const campaign::Probe&,
                                const wire::DecodedReply& reply, std::uint64_t) {
  // A response from the destination itself (or any non-TE terminal)
  // completes this trace.
  terminal_ = reply.type != wire::Icmp6Type::kTimeExceeded ||
              reply.responder == targets_[base_ + current_];
}

void SequentialSource::on_probe_done(const campaign::Probe&, bool answered,
                                     std::uint64_t) {
  auto& s = state_[current_];
  if (terminal_) s.done = true;
  if (!answered && ++s.gaps >= cfg_.gap_limit) s.done = true;
  if (answered) s.gaps = 0;
}

void SequentialSource::finish(campaign::ProbeStats& stats) const {
  stats.traces = targets_.size();
}

std::vector<std::unique_ptr<campaign::ProbeSource>> SequentialSource::split(
    std::uint64_t k) const {
  std::vector<std::unique_ptr<campaign::ProbeSource>> children;
  if (k <= 1 || targets_.size() <= 1) return children;
  const std::uint64_t n = targets_.size();
  const std::uint64_t pieces = std::min<std::uint64_t>(k, n);
  children.reserve(pieces);
  for (std::uint64_t i = 0; i < pieces; ++i) {
    const auto lo = static_cast<std::size_t>(i * n / pieces);
    const auto hi = static_cast<std::size_t>((i + 1) * n / pieces);
    children.push_back(
        std::make_unique<SequentialSource>(cfg_, targets_.subspan(lo, hi - lo)));
  }
  return children;
}

}  // namespace beholder6::prober
