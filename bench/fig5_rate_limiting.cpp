// fig5_rate_limiting — reproduces Figure 5: per-hop responsiveness of
// randomized (yarrp6) vs sequential (scamper-like) probing at 20, 1000 and
// 2000 pps, from two vantages (US-EDU-1 short premise, US-EDU-2 long).
#include <map>

#include "bench/common.hpp"
#include "prober/sequential.hpp"

using namespace beholder6;

namespace {

/// Fraction of traces with a response at each hop 1..16.
std::vector<double> per_hop_response(const topology::TraceCollector& c,
                                     std::size_t traces) {
  std::vector<double> out(17, 0.0);
  for (const auto& [t, tr] : c.traces())
    for (const auto& [ttl, hop] : tr.hops)
      if (ttl <= 16 && hop.type == wire::Icmp6Type::kTimeExceeded) ++out[ttl];
  for (auto& v : out) v /= static_cast<double>(traces);
  return out;
}

}  // namespace

int main() {
  bench::World world;
  const auto set = world.synth("caida", 64);  // the paper's trial target set
  const double rates[] = {20, 1000, 2000};

  for (const auto* vname : {"US-EDU-1", "US-EDU-2"}) {
    const simnet::VantageInfo* vantage = nullptr;
    for (const auto& v : world.topo.vantages())
      if (v.name == vname) vantage = &v;

    std::printf("Figure 5 (%s): fraction of traces responsive per IPv6 hop\n",
                vname);
    bench::rule('=');
    std::printf("%-22s", "method/rate \\ hop");
    for (int hop = 1; hop <= 16; ++hop) std::printf("%5d", hop);
    std::printf("\n");
    bench::rule();

    for (const double pps : rates) {
      // Sequential (scamper-like, synchronized per-TTL bursts).
      {
        simnet::Network net{world.topo, simnet::NetworkParams{}};
        prober::SequentialConfig cfg;
        cfg.src = vantage->src;
        cfg.pps = pps;
        cfg.max_ttl = 16;
        cfg.gap_limit = 16;  // keep probing: per-hop stats need full sweeps
        topology::TraceCollector c;
        prober::SequentialSource src{cfg, set.set.addrs};
        campaign::CampaignRunner::run_one(
            net, src, cfg.endpoint(), cfg.pacing(),
            [&](const wire::DecodedReply& r) { c.on_reply(r); });
        const auto frac = per_hop_response(c, set.set.size());
        std::printf("sequential %6.0fpps  ", pps);
        for (int hop = 1; hop <= 16; ++hop) std::printf(" %4.2f", frac[hop]);
        std::printf("\n");
      }
      // Randomized (yarrp6).
      {
        prober::Yarrp6Config cfg;
        cfg.pps = pps;
        cfg.max_ttl = 16;
        const auto run = bench::run_yarrp(world.topo, *vantage, set.set.addrs, cfg);
        const auto frac = per_hop_response(run.collector, set.set.size());
        std::printf("yarrp      %6.0fpps  ", pps);
        for (int hop = 1; hop <= 16; ++hop) std::printf(" %4.2f", frac[hop]);
        std::printf("\n");
      }
    }
    bench::rule();
    std::printf("\n");
  }
  std::printf(
      "Expected shape (paper): at 20pps the methods are nearly identical; at"
      " 1k/2kpps sequential collapses at the\nshared near-vantage hops (<20%%"
      " at hop 1) while yarrp stays ~100%%, with isolated dips at aggressively"
      "\nrate-limited hops; responsiveness declines with hop count for both.\n");
  return 0;
}
