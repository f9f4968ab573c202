#include "prober/yarrp6.hpp"

#include <algorithm>

#include "netbase/prefetch.hpp"

namespace beholder6::prober {

void Yarrp6Source::begin(std::uint64_t now_us) {
  if (targets_.empty() || cfg_.max_ttl == 0) {
    exhausted_ = true;
    return;
  }
  domain_ = targets_.size() * cfg_.max_ttl;
  perm_.emplace(domain_, cfg_.permutation_key);
  index_ = cfg_.shard;
  stride_ = cfg_.shard_count ? cfg_.shard_count : 1;
  if (!cfg_.neighborhood) return;  // the per-TTL tables serve only it
  last_new_us_.assign(cfg_.max_ttl + 1u, now_us);
  seen_at_ttl_.assign(cfg_.max_ttl + 1u, {});
}

campaign::Poll Yarrp6Source::next(std::uint64_t now_us) {
  if (exhausted_) return campaign::Poll::exhausted();

  // A pending fill extends the current trace one hop before the permuted
  // walk resumes; fills are sequential but rare and at the path tail,
  // where per-router load is minimal (paper §4.1).
  if (fill_pending_) {
    fill_pending_ = false;
    return campaign::Poll::emit({fill_target_,
                                 static_cast<std::uint8_t>(fill_ttl_ + 1), true});
  }

  while (index_ < domain_) {
    std::uint64_t v;
    if (pending_valid_) {
      v = pending_v_;
      pending_valid_ = false;
    } else {
      v = perm_->map(index_);
    }
    index_ += stride_;
    if (index_ < domain_) {
      // Resolve the *next* permuted position now and start pulling its
      // target line: the permuted walk visits targets in random order over
      // arrays far larger than caches naturally hold, and a prefetch
      // issued a whole probe early is free to complete in the background.
      // The value also feeds next_target_hint().
      pending_v_ = perm_->map(index_);
      pending_valid_ = true;
      netbase::prefetch_line(&targets_[pending_v_ / cfg_.max_ttl]);
    }
    const auto& target = targets_[v / cfg_.max_ttl];
    const auto ttl = static_cast<std::uint8_t>(v % cfg_.max_ttl + 1);

    if (cfg_.neighborhood && ttl <= cfg_.neighborhood_ttl &&
        now_us - last_new_us_[ttl] > cfg_.neighborhood_window_us) {
      ++skips_;
      continue;  // skips consume no virtual time
    }

    still_on_path_ = false;
    return campaign::Poll::emit({target, ttl, false});
  }
  exhausted_ = true;
  return campaign::Poll::exhausted();
}

void Yarrp6Source::on_reply(const campaign::Probe&, const wire::DecodedReply& reply,
                            std::uint64_t now_us) {
  still_on_path_ = reply.type == wire::Icmp6Type::kTimeExceeded;
  if (cfg_.neighborhood && reply.probe.ttl <= cfg_.max_ttl &&
      seen_at_ttl_[reply.probe.ttl].insert(reply.responder).second)
    last_new_us_[reply.probe.ttl] = now_us;
}

void Yarrp6Source::on_probe_done(const campaign::Probe& probe, bool answered,
                                 std::uint64_t) {
  if (!cfg_.fill_mode) return;
  // A fill chain starts at the probing horizon and continues hop by hop
  // while replies keep saying "still on path", up to the absolute cap.
  // (ttl >= max_ttl holds exactly for horizon and fill probes.)
  if (answered && still_on_path_ && probe.ttl >= cfg_.max_ttl &&
      probe.ttl < cfg_.fill_cap) {
    fill_pending_ = true;
    fill_target_ = probe.target;
    fill_ttl_ = probe.ttl;
  }
}

void Yarrp6Source::finish(campaign::ProbeStats& stats) const {
  if (report_traces_) stats.traces = targets_.size();
  stats.neighborhood_skips = skips_;
}

std::vector<std::unique_ptr<campaign::ProbeSource>> Yarrp6Source::split(
    std::uint64_t k) const {
  std::vector<std::unique_ptr<campaign::ProbeSource>> children;
  if (k <= 1) return children;
  const std::uint64_t stride = cfg_.shard_count ? cfg_.shard_count : 1;
  // Clamp to the walk's own position count: children beyond it would be
  // born exhausted yet still cost a full network replica each.
  const std::uint64_t domain = targets_.size() * cfg_.max_ttl;
  const std::uint64_t positions =
      cfg_.shard < domain ? (domain - cfg_.shard + stride - 1) / stride : 0;
  k = std::min(k, positions);
  if (k <= 1) return children;  // 0 or 1 position: run the source whole
  children.reserve(k);
  for (std::uint64_t i = 0; i < k; ++i) {
    Yarrp6Config sub = cfg_;
    sub.shard = cfg_.shard + i * stride;
    sub.shard_count = stride * k;
    auto child = std::make_unique<Yarrp6Source>(sub, targets_);
    // The trace count is a property of the whole walk; exactly one child
    // contributes it so the parent-level fold equals the unsplit value —
    // including under re-splitting, where a non-reporting parent's
    // children must all stay non-reporting.
    child->report_traces_ = report_traces_ && i == 0;
    children.push_back(std::move(child));
  }
  return children;
}

std::optional<Ipv6Addr> Yarrp6Source::next_target_hint() const {
  // A pending fill supersedes the permuted walk; otherwise the look-ahead
  // position already resolved in next() names the likely next target.
  if (fill_pending_) return fill_target_;
  if (pending_valid_) return targets_[pending_v_ / cfg_.max_ttl];
  return std::nullopt;
}

}  // namespace beholder6::prober
