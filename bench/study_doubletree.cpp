// study_doubletree — reproduces the §4.2 Doubletree discussion: probing
// cost, discovery, and near-vantage responsiveness of yarrp6 vs sequential
// vs Doubletree under ICMPv6 rate limiting, plus the backward-probing
// bucket-drain pathology.
#include "bench/common.hpp"

#include "prober/doubletree.hpp"
#include "prober/sequential.hpp"

using namespace beholder6;

namespace {

double hop1_rate(const topology::TraceCollector& c, std::size_t traces) {
  std::size_t have = 0;
  for (const auto& [t, tr] : c.traces()) have += tr.hops.contains(1);
  return static_cast<double>(have) / static_cast<double>(traces);
}

}  // namespace

int main() {
  bench::World world;
  const auto set = world.synth("caida", 64);
  const auto& vantage = world.topo.vantages()[0];

  std::printf("Doubletree study (caida z64 targets, vantage %s)\n",
              vantage.name.c_str());
  bench::rule('=');
  std::printf("%-12s %8s %10s %10s %10s %10s\n", "Method", "pps", "Probes",
              "IntAddrs", "Hop1Resp", "RateLtd");
  bench::rule();

  for (const double pps : {20.0, 1000.0}) {
    {
      prober::Yarrp6Config cfg;
      cfg.pps = pps;
      const auto run = bench::run_yarrp(world.topo, vantage, set.set.addrs, cfg);
      const auto& c = run.collector;
      std::printf("%-12s %8.0f %10s %10zu %9.0f%% %10s\n", "yarrp6", pps,
                  bench::human(static_cast<double>(run.probe_stats.probes_sent)).c_str(),
                  c.interfaces().size(), 100 * hop1_rate(c, set.set.size()),
                  bench::human(static_cast<double>(run.net_stats.rate_limited)).c_str());
    }
    {
      simnet::Network net{world.topo, simnet::NetworkParams{}};
      prober::SequentialConfig cfg;
      cfg.src = vantage.src;
      cfg.pps = pps;
      topology::TraceCollector c;
      prober::SequentialSource src{cfg, set.set.addrs};
      const auto st = campaign::CampaignRunner::run_one(
          net, src, cfg.endpoint(), cfg.pacing(),
          [&](const wire::DecodedReply& r) { c.on_reply(r); });
      std::printf("%-12s %8.0f %10s %10zu %9.0f%% %10s\n", "sequential", pps,
                  bench::human(static_cast<double>(st.probes_sent)).c_str(),
                  c.interfaces().size(), 100 * hop1_rate(c, set.set.size()),
                  bench::human(static_cast<double>(net.stats().rate_limited)).c_str());
    }
    {
      simnet::Network net{world.topo, simnet::NetworkParams{}};
      prober::DoubletreeConfig cfg;
      cfg.src = vantage.src;
      cfg.pps = pps;
      cfg.start_ttl = 6;
      topology::TraceCollector c;
      prober::StopSet stop_set;
      prober::DoubletreeSource src{cfg, set.set.addrs, stop_set};
      const auto st = campaign::CampaignRunner::run_one(
          net, src, cfg.endpoint(), cfg.pacing(),
          [&](const wire::DecodedReply& r) { c.on_reply(r); });
      std::printf("%-12s %8.0f %10s %10zu %9.0f%% %10s  (stop set: %zu)\n",
                  "doubletree", pps,
                  bench::human(static_cast<double>(st.probes_sent)).c_str(),
                  c.interfaces().size(), 100 * hop1_rate(c, set.set.size()),
                  bench::human(static_cast<double>(net.stats().rate_limited)).c_str(),
                  stop_set.size());
    }
  }
  bench::rule();
  std::printf(
      "Expected shape (paper): at 20pps all methods are comparable, with"
      " Doubletree cheapest in probes (stop set);\nat 1kpps yarrp6 keeps"
      " hop-1 responsiveness near 100%% while sequential collapses;"
      " Doubletree sits between,\nbut its backward probing keeps draining"
      " rate-limited hops (high RateLtd relative to its probe count).\n");
  return 0;
}
