// study_router_graph — extension (paper §7.2): "we plan to perform alias
// resolution ... to produce router-level topologies and facilitate
// comparative graph analyses". Runs a multi-vantage discovery campaign,
// resolves aliases speedtrap-style, collapses the interface graph into a
// router graph, and compares the two (and the ground truth).
#include <map>

#include "alias/speedtrap.hpp"
#include "bench/common.hpp"
#include "topology/graph.hpp"

using namespace beholder6;

int main() {
  bench::World world;
  // caida targets span every AS, so inter-AS core routers are traversed
  // from three different ingress directions — that is where the
  // ingress-dependent interface aliases live. (Depth-heavy sets like
  // cdn-k32 mostly discover single-interface CPE gateways.)
  const auto set = world.synth("caida", 64);
  auto targets = set.set.addrs;
  if (targets.size() > 2500) targets.resize(2500);

  // Discovery from all three vantages over one network: ingress-dependent
  // interface addresses of shared core routers become resolvable aliases.
  simnet::NetworkParams np;
  np.unlimited = true;
  simnet::Network net{world.topo, np};
  topology::TraceCollector collector;
  for (const auto& v : world.topo.vantages()) {
    prober::Yarrp6Config cfg;
    cfg.src = v.src;
    cfg.pps = 100000;
    cfg.max_ttl = 16;
    prober::Yarrp6Source src{cfg, targets};
    campaign::CampaignRunner::run_one(
        net, src, cfg.endpoint(), cfg.pacing(),
        [&](const wire::DecodedReply& r) { collector.on_reply(r); });
  }

  const auto graph = topology::LinkGraph::from_traces(collector);

  // Alias resolution over every discovered interface.
  std::vector<Ipv6Addr> candidates(collector.interfaces().begin(),
                                   collector.interfaces().end());
  alias::SpeedtrapConfig acfg;
  acfg.src = world.topo.vantages()[0].src;
  alias::SpeedtrapResolver resolver{acfg};
  const auto clusters = resolver.resolve(net, candidates);

  std::map<Ipv6Addr, std::size_t> iface_to_router;
  std::size_t multi = 0;
  for (std::size_t i = 0; i < clusters.size(); ++i) {
    multi += clusters[i].size() > 1;
    for (const auto& iface : clusters[i]) iface_to_router.emplace(iface, i);
  }
  const auto router_links = graph.router_level_links(iface_to_router);

  // Ground truth router count among the learned interfaces.
  std::set<std::uint64_t> true_routers;
  for (const auto& [iface, rid] : net.learned_interfaces())
    if (collector.interfaces().contains(iface)) true_routers.insert(rid);

  std::printf("Router-level graph study (caida z64, %zu targets, 3 vantages)\n",
              targets.size());
  bench::rule('=');
  std::printf("%-28s %12s %12s\n", "", "interface", "router");
  bench::rule();
  std::printf("%-28s %12zu %12zu\n", "nodes", graph.node_count(), clusters.size());
  std::printf("%-28s %12zu %12zu\n", "links", graph.link_count(), router_links);
  std::printf("%-28s %12zu %12s\n", "max degree", graph.max_degree(), "-");
  std::printf("%-28s %12zu %12s\n", "components", graph.component_count(), "-");
  std::printf("%-28s %12zu %12s\n", "degeneracy (max k-core)", graph.degeneracy(), "-");
  bench::rule();
  std::printf("alias clusters with >1 interface: %zu\n", multi);
  std::printf("ground-truth routers behind the discovered interfaces: %zu "
              "(resolver found %zu nodes)\n",
              true_routers.size(), clusters.size());
  bench::rule();
  std::printf(
      "Expected shape: the router graph is strictly smaller than the"
      " interface graph (aliases collapse,\nintra-router links vanish) and"
      " its node count approaches the ground-truth router count from"
      " above;\nthe interface graph is connected (single vantage tree union)"
      " with a small degeneracy.\n");
  return 0;
}
