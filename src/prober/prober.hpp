// prober/prober.hpp — common prober vocabulary.
//
// All three probers (yarrp6, sequential/scamper-like, Doubletree) are
// implemented as campaign::ProbeSource order generators driven by the
// campaign::CampaignRunner, which owns pacing, injection, reply dispatch
// and statistics. The differences between them — probe *order* and clock
// *pacing* — are exactly the variables the paper's §4.2 experiments
// isolate. A campaign is therefore `XSource src{cfg, targets};
// campaign::CampaignRunner::run_one(net, src, cfg.endpoint(), cfg.pacing(),
// sink)`. This header holds the configuration the probers share.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "campaign/probe_source.hpp"
#include "netbase/ipv6.hpp"
#include "simnet/network.hpp"
#include "wire/probe.hpp"

namespace beholder6::prober {

/// What a probing campaign reports about itself.
using ProbeStats = campaign::ProbeStats;

/// Base configuration shared by all probers.
struct ProbeConfig {
  Ipv6Addr src;                       // vantage source address
  wire::Proto proto = wire::Proto::kIcmp6;
  std::uint8_t max_ttl = 16;
  double pps = 1000.0;                // average probing rate
  std::uint8_t instance = 1;

  /// The wire identity the campaign engine emits probes with.
  [[nodiscard]] campaign::Endpoint endpoint() const {
    return campaign::Endpoint{src, proto, instance};
  }
};

/// Shared configuration of the lockstep (windowed, burst-paced) probers:
/// sequential and Doubletree both trace a window of destinations in
/// synchronized rounds at line rate, idling between rounds to hold pps.
struct LockstepConfig : ProbeConfig {
  /// Traces probed in lockstep per window; 0 derives it from pps (50 ms of
  /// probes, minimum 1), which is how the burstiness scales with rate.
  std::size_t window = 0;
  std::uint8_t gap_limit = 5;   // stop a trace after this many silent hops
  std::uint64_t line_rate_gap_us = 1;  // in-burst inter-packet gap

  [[nodiscard]] std::size_t effective_window() const {
    const double rate = pps > 0 ? pps : 1.0;
    return window ? window
                  : std::max<std::size_t>(1, static_cast<std::size_t>(rate * 0.05));
  }
  [[nodiscard]] campaign::PacingPolicy pacing() const {
    return campaign::PacingPolicy::burst(pps, line_rate_gap_us);
  }
};

}  // namespace beholder6::prober
