// prober/sequential.hpp — a scamper-like sequential ICMP-Paris prober.
//
// The state-of-the-art baseline the paper measures against (Figure 5). It
// traces a window of destinations in lockstep: all traces send their TTL-1
// probes, then their TTL-2 probes, and so on. Because the window stays
// synchronized, each TTL round hits the shared near-vantage routers as a
// back-to-back burst — the "per-TTL bursty behavior" the paper identifies
// in packet captures as the cause of sequential probing's rate-limiting
// losses. Pacing: bursts go out at line rate, then the prober idles to hold
// the configured average pps (campaign::PacingPolicy::burst).
//
// Paris invariants are inherited from the probe codec (constant header
// fields per target), and per-trace state lets it stop early at the
// destination or after `gap_limit` consecutive silent hops — the classic
// traceroute optimizations yarrp6 deliberately gives up. SequentialSource
// expresses that order through the pull API, for campaign::CampaignRunner
// to drive at SequentialConfig::pacing().
#pragma once

#include <span>
#include <vector>

#include "campaign/probe_source.hpp"
#include "prober/prober.hpp"

namespace beholder6::prober {

/// Plain lockstep tracing needs nothing beyond the shared window config.
struct SequentialConfig : LockstepConfig {};

/// Pull-based lockstep order: per window, one round per TTL; a round
/// boundary after each TTL sweep lets the pacer idle out the rate budget.
class SequentialSource final : public campaign::ProbeSource {
 public:
  SequentialSource(const SequentialConfig& cfg, std::span<const Ipv6Addr> targets)
      : cfg_(cfg), targets_(targets) {}
  /// A temporary target list would dangle: the source keeps only a span.
  SequentialSource(const SequentialConfig&, std::vector<Ipv6Addr>&&) = delete;

  void begin(std::uint64_t now_us) override;
  campaign::Poll next(std::uint64_t now_us) override;
  void on_reply(const campaign::Probe& probe, const wire::DecodedReply& reply,
                std::uint64_t now_us) override;
  void on_probe_done(const campaign::Probe& probe, bool answered,
                     std::uint64_t now_us) override;
  void finish(campaign::ProbeStats& stats) const override;
  /// All probes target the configured list, so it is the exact warmup set.
  [[nodiscard]] std::span<const Ipv6Addr> route_warm_targets() const override {
    return targets_;
  }

  /// Deterministic over-decomposition by target range: child i of k traces
  /// the i-th contiguous slice of the target list (balanced to within one
  /// target), with the parent's window/pacing config. Per-trace state never
  /// crosses targets, so the children jointly trace exactly the parent's
  /// list — but window boundaries restart per child, which is why k is part
  /// of the campaign spec. Fewer than two targets: unsplittable (empty).
  [[nodiscard]] std::vector<std::unique_ptr<campaign::ProbeSource>> split(
      std::uint64_t k) const override;

 private:
  struct TraceState {
    bool done = false;
    std::uint8_t gaps = 0;
  };

  void start_window();

  SequentialConfig cfg_;
  std::span<const Ipv6Addr> targets_;
  std::size_t window_ = 1;
  std::size_t base_ = 0;       // first trace of the current window
  std::size_t count_ = 0;      // traces in the current window
  std::vector<TraceState> state_;
  std::uint8_t ttl_ = 1;       // current lockstep round
  std::size_t idx_ = 0;        // next trace to consider this round
  std::size_t current_ = 0;    // trace of the probe in flight
  bool round_open_ = false;    // a probe was emitted since the last RoundEnd
  bool terminal_ = false;      // in-flight probe drew a terminal response
  bool exhausted_ = false;
};

}  // namespace beholder6::prober
