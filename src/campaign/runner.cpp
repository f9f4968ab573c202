#include "campaign/runner.hpp"

namespace beholder6::campaign {

namespace {

/// Advance a Bresenham pacing accumulator by `budget_us` ideal (possibly
/// fractional) microseconds: returns the integral step the virtual clock
/// should take and carries the remainder into the next step, so the
/// long-run average rate is exact at any pps. Integral budgets leave the
/// carry at exactly zero, which is what keeps classic integral-gap
/// schedules (pps = 1000, 500, ...) bit-identical to the legacy loops.
std::uint64_t pace_step(double budget_us, double& carry) {
  const double exact = budget_us + carry;
  const auto step = static_cast<std::uint64_t>(exact);
  carry = exact - static_cast<double>(step);
  return step;
}

}  // namespace

std::size_t CampaignRunner::add(ProbeSource& source, const Endpoint& endpoint,
                                const PacingPolicy& pacing, ResponseSink sink) {
  Member m;
  m.source = &source;
  m.endpoint = endpoint;
  m.pacing = pacing;
  m.sink = std::move(sink);
  // The ideal per-probe budget. The classic prober loops truncated this to
  // integer microseconds once, up front — which zeroes the gap at
  // pps >= 1e6 (the clock never advances, every probe lands on one tick and
  // buckets never refill) and drifts the long-run rate whenever 1e6/pps is
  // fractional (pps = 3 paced at 333333 µs instead of 333333.3̅). The
  // runner keeps the exact value and truncates per probe through the
  // pace_step accumulator instead.
  m.gap_exact_us = 1e6 / (pacing.pps > 0 ? pacing.pps : 1.0);
  m.due_us = net_.now_us();  // first send slot: immediately
  members_.push_back(std::move(m));
  stats_.emplace_back();
  schedule(members_.size() - 1);
  return members_.size() - 1;
}

void CampaignRunner::schedule(std::size_t idx) {
  queue_.push(Slot{members_[idx].due_us, seq_++, idx});
}

void CampaignRunner::emit(Member& m, ProbeStats& stats, const Probe& probe) {
  ++stats.probes_sent;
  if (probe.fill) ++stats.fills;
  wire::encode_probe_into(
      probe_spec_at(m.endpoint, probe.target, probe.ttl, net_.now_us()),
      probe_buf_);
  const auto replies = net_.inject_view(probe_buf_);
  const bool answered = dispatch_replies(
      replies, m.endpoint, net_.now_us(), [&](const wire::DecodedReply& dec) {
        ++stats.replies;
        if (m.sink) m.sink(dec);
        m.source->on_reply(probe, dec, net_.now_us());
      });
  m.source->on_probe_done(probe, answered, net_.now_us());
  // Warm the network's route lookup for the source's likely next probe —
  // the feedback above has settled, so the hint is as good as it gets. A
  // latency hint only: results never depend on it.
  if (const auto hint = m.source->next_target_hint())
    net_.prime_route(m.endpoint.src, *hint, m.endpoint.proto);
}

bool CampaignRunner::step() {
  if (queue_.empty()) return false;
  const auto slot = queue_.top();
  queue_.pop();
  auto& m = members_[slot.member];
  auto& stats = stats_[slot.member];
  if (slot.due_us > net_.now_us()) net_.advance_us(slot.due_us - net_.now_us());
  if (!m.begun) {
    m.begun = true;
    m.start_us = net_.now_us();
    m.source->begin(net_.now_us());
  }

  const auto poll = m.source->next(net_.now_us());
  switch (poll.status) {
    case Poll::Status::kProbe:
      emit(m, stats, poll.probe);
      if (m.pacing.kind == PacingPolicy::Kind::kUniform) {
        m.due_us += pace_step(m.gap_exact_us, m.pace_carry);
      } else {
        ++m.round_sent;
        m.due_us += m.pacing.line_rate_gap_us;
      }
      schedule(slot.member);
      break;

    case Poll::Status::kRoundEnd: {
      if (m.pacing.kind == PacingPolicy::Kind::kBurst) {
        // Idle out the rest of the round so the average rate stays at pps —
        // the same arithmetic as the lockstep probers' round budget, with
        // the fractional part carried across rounds.
        const auto budget_us = pace_step(
            static_cast<double>(m.round_sent) * m.gap_exact_us, m.pace_carry);
        const auto spent_us = m.round_sent * m.pacing.line_rate_gap_us;
        if (budget_us > spent_us) m.due_us += budget_us - spent_us;
        m.round_sent = 0;
      }
      // Under uniform pacing a round boundary is pacing-neutral by
      // definition: every probe already paid its full 1e6/pps gap, so
      // there is no residual budget and the source is simply re-polled at
      // the same virtual slot. (No division by pps happens here — the old
      // code computed a 0/pps budget as an accident of round_sent == 0.)
      schedule(slot.member);
      break;
    }

    case Poll::Status::kExhausted:
      stats.elapsed_virtual_us = net_.now_us() - m.start_us;
      m.source->finish(stats);
      break;
  }
  return true;
}

std::vector<ProbeStats> CampaignRunner::run() {
  while (step()) {
  }
  return stats_;
}

std::size_t RouteWarmer::add(const Endpoint& endpoint,
                             std::span<const Ipv6Addr> targets) {
  std::size_t added = 0;
  for (const auto& target : targets) {
    wire::encode_probe_into(probe_spec_at(endpoint, target, 1, 0), encode_buf_);
    const auto key = simnet::Network::probe_route_key(topo_, encode_buf_);
    if (!key || !seen_.insert(key->key).second) continue;
    if (!cache_) cache_ = std::make_shared<simnet::RouteCache>();
    topo_.path_into(topo_.vantages()[key->vantage_index], key->dst,
                    key->flow_variant, key->next_header, path_);
    (void)cache_->insert(key->key, path_);
    ++added;
  }
  return added;
}

ProbeStats CampaignRunner::run_one(simnet::Network& net, ProbeSource& source,
                                   const Endpoint& endpoint,
                                   const PacingPolicy& pacing, ResponseSink sink) {
  CampaignRunner runner{net};
  runner.add(source, endpoint, pacing, std::move(sink));
  return runner.run()[0];
}

}  // namespace beholder6::campaign
