#include "campaign/runner.hpp"

#include <utility>

#include "netbase/dcheck.hpp"

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

Pacer::Pacer(ProbeSource& source, const Endpoint& endpoint,
             const PacingPolicy& pacing, ResponseSink sink,
             std::uint64_t first_due_us)
    : source_(&source),
      endpoint_(endpoint),
      pacing_(pacing),
      sink_(std::move(sink)),
      // The ideal per-probe budget. The classic prober loops truncated this
      // to integer microseconds once, up front — which zeroes the gap at
      // pps >= 1e6 (the clock never advances, every probe lands on one tick
      // and buckets never refill) and drifts the long-run rate whenever
      // 1e6/pps is fractional (pps = 3 paced at 333333 µs instead of
      // 333333.3̅). The Pacer keeps the exact value and truncates per probe
      // through the pace_step accumulator instead.
      gap_exact_us_(1e6 / (pacing.pps > 0 ? pacing.pps : 1.0)),
      due_us_(first_due_us) {}

void Pacer::emit(simnet::Network& net, simnet::Packet& probe_buf,
                 const Probe& probe) {
  ++stats_.probes_sent;
  if (probe.fill) ++stats_.fills;
  wire::encode_probe_into(
      probe_spec_at(endpoint_, probe.target, probe.ttl, net.now_us()),
      probe_buf);
  // Decode each reply, filter on the endpoint's instance id and dispatch
  // the survivors. The replies view the network's reply pool, so neither
  // the sink nor the source may inject into `net` from here.
  bool answered = false;
  for (const auto& r : net.inject_view(probe_buf)) {
    const auto dec =
        wire::decode_reply(r, static_cast<std::uint32_t>(net.now_us()));
    if (!dec || dec->probe.instance != endpoint_.instance) continue;
    answered = true;
    ++stats_.replies;
    if (sink_) sink_(*dec);
    source_->on_reply(probe, *dec, net.now_us());
  }
  source_->on_probe_done(probe, answered, net.now_us());
}

bool Pacer::step(simnet::Network& net, simnet::Packet& probe_buf) {
  B6_DCHECK(!done_, "stepping an exhausted Pacer");
  if (due_us_ > net.now_us()) net.advance_us(due_us_ - net.now_us());
  if (!begun_) {
    begun_ = true;
    start_us_ = net.now_us();
    source_->begin(net.now_us());
  }

  const auto poll = source_->next(net.now_us());
  switch (poll.status) {
    case Poll::Status::kProbe:
      emit(net, probe_buf, poll.probe);
      if (pacing_.kind == PacingPolicy::Kind::kUniform) {
        due_us_ += pace_step(gap_exact_us_, pace_carry_);
      } else {
        ++round_sent_;
        due_us_ += pacing_.line_rate_gap_us;
      }
      return true;

    case Poll::Status::kRoundEnd:
      if (pacing_.kind == PacingPolicy::Kind::kBurst) {
        // Idle out the rest of the round so the average rate stays at pps —
        // the same arithmetic as the lockstep probers' round budget, with
        // the fractional part carried across rounds.
        const auto budget_us = pace_step(
            static_cast<double>(round_sent_) * gap_exact_us_, pace_carry_);
        const auto spent_us = round_sent_ * pacing_.line_rate_gap_us;
        if (budget_us > spent_us) due_us_ += budget_us - spent_us;
        round_sent_ = 0;
      }
      // Under uniform pacing a round boundary is pacing-neutral by
      // definition: every probe already paid its full 1e6/pps gap, so
      // there is no residual budget and the source is simply re-polled at
      // the same virtual slot.
      return true;

    case Poll::Status::kExhausted:
      break;
  }
  stats_.elapsed_virtual_us = net.now_us() - start_us_;
  source_->finish(stats_);
  done_ = true;
  return false;
}

std::size_t CampaignRunner::add(ProbeSource& source, const Endpoint& endpoint,
                                const PacingPolicy& pacing, ResponseSink sink) {
  // First send slot: immediately.
  pacers_.emplace_back(source, endpoint, pacing, std::move(sink),
                       net_.now_us());
  schedule(pacers_.size() - 1);
  return pacers_.size() - 1;
}

void CampaignRunner::schedule(std::size_t idx) {
  queue_.push(Slot{pacers_[idx].due_us(), seq_++, idx});
}

bool CampaignRunner::step() {
  if (queue_.empty()) return false;
  const std::size_t idx = queue_.top().member;
  queue_.pop();
  if (pacers_[idx].step(net_, probe_buf_)) schedule(idx);
  return true;
}

std::vector<ProbeStats> CampaignRunner::run() {
  while (step()) {
  }
  return stats();
}

std::vector<ProbeStats> CampaignRunner::stats() const {
  std::vector<ProbeStats> out;
  out.reserve(pacers_.size());
  for (const Pacer& p : pacers_) out.push_back(p.stats());
  return out;
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
