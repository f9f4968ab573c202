// rate_limit_tuning — explore probing speed vs completeness (paper §4.2).
//
// Sweeps probing rates for randomized and sequential probing against the
// same rate-limited network, reporting per-hop responsiveness near the
// vantage and the interface totals — how an operator would pick a rate.
//
//   $ ./examples/rate_limit_tuning
#include <cstdio>

#include "campaign/runner.hpp"
#include "prober/sequential.hpp"
#include "prober/yarrp6.hpp"
#include "seeds/sources.hpp"
#include "simnet/network.hpp"
#include "target/synthesis.hpp"
#include "target/transform.hpp"
#include "topology/collector.hpp"

using namespace beholder6;

namespace {

double hop_response(const topology::TraceCollector& c, std::size_t traces,
                    std::uint8_t hop) {
  std::size_t have = 0;
  for (const auto& [t, tr] : c.traces()) have += tr.hops.contains(hop);
  return traces == 0 ? 0.0 : static_cast<double>(have) / static_cast<double>(traces);
}

}  // namespace

int main() {
  simnet::Topology topo{simnet::TopologyParams{.seed = 7}};
  const auto& vantage = topo.vantages()[0];
  const auto targets = target::synthesize_fixediid(target::transform_zn(
      seeds::make_caida(topo, seeds::SeedScale{}, 7), 64));

  std::printf("rate sweep over %zu targets (vantage %s)\n\n", targets.size(),
              vantage.name.c_str());
  std::printf("%-12s %8s %10s %8s %8s %8s %10s\n", "method", "pps", "probes",
              "hop1", "hop4", "hop8", "ifaces");
  for (int i = 0; i < 70; ++i) std::putchar('-');
  std::putchar('\n');

  for (const double pps : {20.0, 200.0, 1000.0, 2000.0, 5000.0}) {
    {
      simnet::Network net{topo};
      prober::Yarrp6Config cfg;
      cfg.src = vantage.src;
      cfg.pps = pps;
      topology::TraceCollector c;
      prober::Yarrp6Source src{cfg, targets.addrs};
      const auto st = campaign::CampaignRunner::run_one(
          net, src, cfg.endpoint(), cfg.pacing(),
          [&](const wire::DecodedReply& r) { c.on_reply(r); });
      std::printf("%-12s %8.0f %10llu %7.0f%% %7.0f%% %7.0f%% %10zu\n",
                  "yarrp6", pps, static_cast<unsigned long long>(st.probes_sent),
                  100 * hop_response(c, targets.size(), 1),
                  100 * hop_response(c, targets.size(), 4),
                  100 * hop_response(c, targets.size(), 8),
                  c.interfaces().size());
    }
    {
      simnet::Network net{topo};
      prober::SequentialConfig cfg;
      cfg.src = vantage.src;
      cfg.pps = pps;
      cfg.gap_limit = 16;
      topology::TraceCollector c;
      prober::SequentialSource src{cfg, targets.addrs};
      const auto st = campaign::CampaignRunner::run_one(
          net, src, cfg.endpoint(), cfg.pacing(),
          [&](const wire::DecodedReply& r) { c.on_reply(r); });
      std::printf("%-12s %8.0f %10llu %7.0f%% %7.0f%% %7.0f%% %10zu\n",
                  "sequential", pps, static_cast<unsigned long long>(st.probes_sent),
                  100 * hop_response(c, targets.size(), 1),
                  100 * hop_response(c, targets.size(), 4),
                  100 * hop_response(c, targets.size(), 8),
                  c.interfaces().size());
    }
  }
  std::printf("\nThe takeaway the paper operationalizes: randomization keeps"
              " responsiveness high as rate grows;\nsequential probing is"
              " fine at 20pps and collapses at kpps rates. The paper probes"
              " at 1kpps.\n");
  return 0;
}
