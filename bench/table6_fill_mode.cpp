// table6_fill_mode — reproduces Table 6: fill-mode trials over the caida
// target set with initial max TTL ∈ {4, 8, 16, 32}: probes, fills, unique
// interface addresses, and yield (addresses per probe).
#include "bench/common.hpp"

using namespace beholder6;

int main() {
  bench::World world;
  const auto set = world.synth("caida", 64);

  // The paper ran this trial from a vantage whose hop 5 never responded,
  // which is what stalls fill chains started at MaxTTL 4 ("the number of
  // fills for a maximum TTL of four is much less than for a maximum TTL of
  // eight simply because hop five did not respond"). US-EDU-2's premise
  // chain covers hop 5; force that router ICMPv6-silent, and give the rest
  // of the network a realistic silent-router fraction.
  const auto& vantage = world.topo.vantages()[1];  // US-EDU-2
  simnet::NetworkParams np;
  np.silent_router_frac = 0.15;
  const auto probe_path =
      world.topo.path(vantage, set.set.addrs.front(), 0, 58);
  np.silent_routers.insert(probe_path.hops[4].router_id);  // hop 5

  std::printf("Table 6: Fill Mode Trial Results (caida z64 targets, %s)\n",
              vantage.name.c_str());
  bench::rule('=');
  std::printf("%-8s %12s %10s %12s %9s\n", "MaxTTL", "Probes", "Fills",
              "IntAddrs", "Yield%");
  bench::rule();

  double best_yield = 0;
  unsigned best_ttl = 0;
  for (unsigned maxttl : {4u, 8u, 16u, 32u}) {
    prober::Yarrp6Config cfg;
    cfg.pps = 1000;
    cfg.max_ttl = static_cast<std::uint8_t>(maxttl);
    cfg.fill_mode = maxttl < 32;  // at the cap there is nothing to fill
    cfg.fill_cap = 32;
    const auto c = bench::run_yarrp(world.topo, vantage, set.set.addrs, cfg, np);
    const auto yield = 100.0 *
                       static_cast<double>(c.collector.interfaces().size()) /
                       static_cast<double>(c.probe_stats.probes_sent);
    if (yield > best_yield) {
      best_yield = yield;
      best_ttl = maxttl;
    }
    std::printf("%-8u %12s %10s %12s %9.2f\n", maxttl,
                bench::human(static_cast<double>(c.probe_stats.probes_sent)).c_str(),
                bench::human(static_cast<double>(c.probe_stats.fills)).c_str(),
                bench::human(static_cast<double>(c.collector.interfaces().size())).c_str(),
                yield);
  }
  bench::rule();
  std::printf("Best yield at MaxTTL=%u.\n", best_ttl);
  std::printf("Expected shape (paper): tiny MaxTTL wastes the trace (yield"
              " ~0.1%% at 4); MaxTTL 16 maximizes yield;\n32 discovers no more"
              " but spends ~2x the probes (paper chose 16 for all campaigns)."
              "\n");
  return 0;
}
