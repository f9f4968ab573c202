// quickstart — the smallest useful beholder6 program.
//
// Builds the synthetic IPv6 Internet, aims yarrp6 at the ::1 of every
// BGP-announced prefix (the CAIDA-style strategy), and prints the traces
// it reassembles and the router interfaces it discovered.
//
// The probing stack has three layers:
//
//   ProbeSource     — probe *order* (here Yarrp6Source: a keyed random
//                     permutation of the target × TTL space)
//   CampaignRunner  — everything else: pacing at the configured pps,
//                     virtual-clock advancement, encode/inject, reply
//                     decode and dispatch, per-campaign ProbeStats
//   simnet::Network — the simulated Internet the probes traverse
//
// run_one() wires one source to one runner; campaigns with many sources
// (multi-vantage, mixed protocol) add several sources to one runner and
// let the event queue interleave them — see examples/campaign.cpp.
//
//   $ ./examples/quickstart
#include <cstdio>

#include "campaign/runner.hpp"
#include "prober/yarrp6.hpp"
#include "seeds/sources.hpp"
#include "simnet/network.hpp"
#include "target/synthesis.hpp"
#include "target/transform.hpp"
#include "topology/collector.hpp"

using namespace beholder6;

int main() {
  // 1. A deterministic synthetic Internet (≈80 ASes, three vantages).
  simnet::Topology topo{simnet::TopologyParams{.seed = 42}};
  simnet::Network net{topo};
  const auto& vantage = topo.vantages()[0];
  std::printf("vantage: %s (AS%u, %s)\n\n", vantage.name.c_str(), vantage.asn,
              vantage.src.to_string().c_str());

  // 2. Targets: seed from BGP, normalize to /64, install the fixed IID —
  //    the paper's three-step generation pipeline.
  const auto seeds = seeds::make_caida(topo, seeds::SeedScale{}, 42);
  const auto targets =
      target::synthesize_fixediid(target::transform_zn(seeds, 64));
  std::printf("targets: %zu (from %zu BGP-derived seeds)\n\n", targets.size(),
              seeds.size());

  // 3. Probe: a Yarrp6Source (randomized stateless order, fill mode on)
  //    driven by the campaign engine at 1kpps uniform pacing.
  prober::Yarrp6Config cfg;
  cfg.src = vantage.src;
  cfg.max_ttl = 16;
  cfg.pps = 1000;
  cfg.fill_mode = true;
  topology::TraceCollector collector;
  prober::Yarrp6Source source{cfg, targets.addrs};
  const auto stats = campaign::CampaignRunner::run_one(
      net, source, cfg.endpoint(), cfg.pacing(),
      [&](const wire::DecodedReply& r) { collector.on_reply(r); });

  // 4. Results.
  std::printf("probes sent      : %llu (%llu fills)\n",
              static_cast<unsigned long long>(stats.probes_sent),
              static_cast<unsigned long long>(stats.fills));
  std::printf("replies          : %llu\n",
              static_cast<unsigned long long>(stats.replies));
  std::printf("unique interfaces: %zu\n", collector.interfaces().size());
  std::printf("traces           : %zu (median path length %d)\n\n",
              collector.traces().size(), collector.path_len_percentile(0.5));

  // Print one reassembled trace: the lowest-addressed target with at least
  // six responding hops (traces() iterates in table order, which is not
  // meaningful, so pick by address).
  const topology::Trace* shown = nullptr;
  for (const auto& [target, trace] : collector.traces())
    if (trace.hops.size() >= 6 && (!shown || target < shown->target)) shown = &trace;
  if (shown) {
    std::printf("trace to %s:\n", shown->target.to_string().c_str());
    for (const auto& [ttl, hop] : shown->hops)
      std::printf("  %2d  %s\n", ttl, hop.iface.to_string().c_str());
  }
  return 0;
}
