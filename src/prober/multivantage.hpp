// prober/multivantage.hpp — coordinated multi-vantage campaigns (the
// paper's §7.2 future work: "leverage our methodology across a large number
// of vantages ... to provide even greater scope and coverage").
//
// All vantages share one permutation key and partition the (target × TTL)
// space by shard index, so the union of their probes covers the space
// exactly once: aggregate probing cost equals a single-vantage campaign,
// while each router sees 1/k of the per-vantage load (the rate-limiting
// benefit compounds) and destination-side hops are observed from several
// directions (which is also what exposes router aliases).
//
// Built on the campaign engine: every vantage is one Yarrp6Source added to
// one CampaignRunner over one shared simnet::Network (shared rate-limiter
// state — the vantages really do coexist). Two schedules:
//
//   sequential  — vantages run one after another in virtual time, each at
//                 its configured pps (the paper's actual operation: the
//                 same campaign launched from each vantage). Default.
//   interleaved — all vantages share the event queue and probe
//                 concurrently in virtual time, k·pps aggregate — the
//                 truly simultaneous deployment the engine makes
//                 first-class.
//
// The physically distributed deployment, every vantage on its own worker
// over a private Network replica, is campaign::ParallelCampaignRunner with
// one Yarrp6Source shard per vantage (bench/table7_campaigns.cpp).
#pragma once

#include <vector>

#include "campaign/runner.hpp"
#include "prober/yarrp6.hpp"
#include "topology/collector.hpp"

namespace beholder6::prober {

struct MultiVantageOptions {
  /// Run all vantages through one event queue, concurrently in virtual
  /// time. Off by default: sequential scheduling preserves the classic
  /// per-vantage pacing profile (and its rate-limiter interaction).
  bool interleave = false;
};

struct MultiVantageResult {
  topology::TraceCollector collector;       // merged across vantages
  std::vector<ProbeStats> per_vantage;      // parallel to the vantage list
  [[nodiscard]] std::uint64_t total_probes() const {
    std::uint64_t n = 0;
    for (const auto& s : per_vantage) n += s.probes_sent;
    return n;
  }
};

/// Run one sharded campaign: vantage i probes shard i of the permuted
/// space through the shared network.
[[nodiscard]] MultiVantageResult run_multi_vantage(
    simnet::Network& net, const std::vector<simnet::VantageInfo>& vantages,
    const std::vector<Ipv6Addr>& targets, Yarrp6Config base_cfg,
    const MultiVantageOptions& options = {});

}  // namespace beholder6::prober
