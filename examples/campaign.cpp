// campaign — the paper's full methodology end to end, in miniature.
//
// Synthesizes targets from several seed sources (Figure 1's pipeline) and
// probes them from all three vantages *concurrently*: one CampaignRunner,
// three Yarrp6Sources with distinct instance ids, one shared network whose
// rate limiters see the combined load — the workflow behind Table 7, run
// the way a real multi-vantage deployment runs. Prints a per-set,
// per-vantage discovery summary.
//
//   $ ./examples/campaign [scale]    (0.001..100, default 0.4; exit 2 otherwise)
#include <cstdio>
#include <set>

#include "campaign/runner.hpp"
#include "prober/yarrp6.hpp"
#include "seeds/classify.hpp"
#include "seeds/sources.hpp"
#include "simnet/network.hpp"
#include "target/synthesis.hpp"
#include "target/transform.hpp"
#include "tools/parse_number.hpp"
#include "topology/collector.hpp"

using namespace beholder6;

int main(int argc, char** argv) {
  const double scale =
      argc > 1 ? cli::parse_number("scale", argv[1], 1e-3, 100.0) : 0.4;
  simnet::Topology topo{simnet::TopologyParams{.seed = 20180514}};
  seeds::SeedScale sc;
  sc.scale = scale;

  std::printf("%-10s %-9s %9s %9s %9s %7s %7s\n", "set", "vantage", "targets",
              "probes", "ifaces", "eui64%", "reach%");
  for (int i = 0; i < 66; ++i) std::putchar('-');
  std::putchar('\n');

  for (const auto* name : {"caida", "cdn-k32", "tum"}) {
    // Step 1-3: seed -> transform (z64) -> synthesize (fixed IID).
    target::SeedList seed_list;
    if (std::string(name) == "caida") seed_list = seeds::make_caida(topo, sc, 7);
    else if (std::string(name) == "cdn-k32") seed_list = seeds::make_cdn(topo, sc, 32, 7);
    else seed_list = seeds::make_tum(topo, sc, 7);
    const auto targets =
        target::synthesize_fixediid(target::transform_zn(seed_list, 64));

    // Step 4: one engine, one shared network, all vantages interleaved.
    simnet::Network net{topo};
    campaign::CampaignRunner runner{net};
    const auto& vantages = topo.vantages();
    std::vector<prober::Yarrp6Source> sources;
    std::vector<topology::TraceCollector> collectors(vantages.size());
    sources.reserve(vantages.size());
    for (std::size_t i = 0; i < vantages.size(); ++i) {
      prober::Yarrp6Config cfg;
      cfg.src = vantages[i].src;
      cfg.pps = 1000;
      cfg.max_ttl = 16;
      cfg.fill_mode = true;
      cfg.instance = static_cast<std::uint8_t>(i + 1);
      sources.emplace_back(cfg, targets.addrs);
      runner.add(sources.back(), cfg.endpoint(), cfg.pacing(),
                 [&collectors, i](const wire::DecodedReply& r) {
                   collectors[i].on_reply(r);
                 });
    }
    const auto stats = runner.run();

    for (std::size_t i = 0; i < vantages.size(); ++i) {
      const auto& c = collectors[i];
      const auto eui = c.eui64_report();
      std::printf("%-10s %-9s %9zu %9llu %9zu %6.1f%% %6.1f%%\n", name,
                  vantages[i].name.c_str(), targets.size(),
                  static_cast<unsigned long long>(stats[i].probes_sent),
                  c.interfaces().size(), 100 * eui.frac_of_interfaces,
                  100 * c.reached_fraction());
    }
  }
  std::printf("\nNote how the client-derived sets (cdn-k32, tum) discover far"
              " more interfaces than the BGP-derived\ncaida set, and how their"
              " EUI-64 share exposes CPE routers — the paper's central"
              " finding.\n");
  return 0;
}
