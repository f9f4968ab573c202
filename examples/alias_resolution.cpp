// alias_resolution — from interface discovery to a router-level view.
//
// The paper's stated follow-on (§7.2): run yarrp6 from several vantages,
// then resolve which discovered interfaces belong to one router using
// speedtrap-style fragment-identification probing, and collapse the
// interface link graph to router level.
//
//   $ ./examples/alias_resolution
#include <cstdio>
#include <map>

#include "alias/speedtrap.hpp"
#include "campaign/runner.hpp"
#include "prober/yarrp6.hpp"
#include "seeds/sources.hpp"
#include "simnet/network.hpp"
#include "target/synthesis.hpp"
#include "target/transform.hpp"
#include "topology/collector.hpp"
#include "topology/graph.hpp"

using namespace beholder6;

int main() {
  simnet::Topology topo{simnet::TopologyParams{.seed = 2018}};
  simnet::NetworkParams np;
  np.unlimited = true;
  simnet::Network net{topo, np};

  // Phase 1: discovery from all three vantages (aliases of shared core
  // routers only become visible from distinct ingress directions).
  const auto targets = target::synthesize_fixediid(target::transform_zn(
      seeds::make_caida(topo, seeds::SeedScale{}, 2018), 64));
  topology::TraceCollector collector;
  for (const auto& vantage : topo.vantages()) {
    prober::Yarrp6Config cfg;
    cfg.src = vantage.src;
    cfg.pps = 100000;
    cfg.max_ttl = 16;
    prober::Yarrp6Source src{cfg, targets.addrs};
    campaign::CampaignRunner::run_one(
        net, src, cfg.endpoint(), cfg.pacing(),
        [&](const wire::DecodedReply& r) { collector.on_reply(r); });
  }
  const auto graph = topology::LinkGraph::from_traces(collector);
  std::printf("discovery : %zu interfaces, %zu interface-level links\n",
              collector.interfaces().size(), graph.link_count());

  // Phase 2: alias resolution over the discovered interfaces.
  std::vector<Ipv6Addr> candidates(collector.interfaces().begin(),
                                   collector.interfaces().end());
  std::sort(candidates.begin(), candidates.end());
  if (candidates.size() > 250) candidates.resize(250);
  alias::SpeedtrapConfig scfg;
  scfg.src = topo.vantages()[0].src;
  alias::SpeedtrapResolver resolver{scfg};
  const auto routers = resolver.resolve(net, candidates);

  std::size_t multi = 0;
  std::map<Ipv6Addr, std::size_t> cluster;
  for (std::size_t r = 0; r < routers.size(); ++r) {
    multi += routers[r].size() > 1;
    for (const auto& iface : routers[r]) cluster[iface] = r;
  }
  std::printf("resolution: %zu candidates -> %zu routers (%zu with multiple"
              " interfaces, %llu probes)\n",
              candidates.size(), routers.size(), multi,
              static_cast<unsigned long long>(resolver.probes_sent()));
  std::printf("router-level links: %zu (from %zu interface-level)\n\n",
              graph.router_level_links(cluster), graph.link_count());

  std::printf("sample multi-interface routers:\n");
  for (int shown = 0; const auto& r : routers) {
    if (r.size() < 2 || shown++ >= 4) continue;
    std::printf("  router:");
    for (const auto& iface : r) std::printf(" %s", iface.to_string().c_str());
    std::printf("\n");
  }
  return 0;
}
