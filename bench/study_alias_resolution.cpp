// study_alias_resolution — the paper's §7.2 follow-on step, implemented:
// discover interfaces with yarrp6 from all three vantages, then resolve
// aliases speedtrap-style and score the inferred routers against simnet
// ground truth (interfaces sharing a router id are true aliases).
#include <map>

#include "alias/speedtrap.hpp"
#include "bench/common.hpp"

using namespace beholder6;

int main() {
  bench::World world;
  simnet::NetworkParams np;
  np.unlimited = true;
  simnet::Network net{world.topo, np};

  // Phase 1: interface discovery from every vantage (shared network state so
  // the learned-interface map accumulates all ingress-dependent aliases).
  const auto set = world.synth("caida", 64);
  std::size_t traces = 0;
  for (const auto& vantage : world.topo.vantages()) {
    prober::Yarrp6Config cfg;
    cfg.src = vantage.src;
    cfg.pps = 100000;
    cfg.max_ttl = 16;
    prober::Yarrp6Source src{cfg, set.set.addrs};
    const auto stats = campaign::CampaignRunner::run_one(net, src, cfg.endpoint(),
                                                         cfg.pacing(), nullptr);
    traces += stats.traces;
  }
  const auto& learned = net.learned_interfaces();
  std::printf("discovery: %zu traces x 3 vantages -> %zu learned interfaces\n",
              traces / 3, learned.size());

  // Ground truth: router id -> its discovered interfaces.
  std::map<std::uint64_t, std::vector<Ipv6Addr>> truth;
  std::vector<Ipv6Addr> candidates;
  for (const auto& [iface, rid] : learned) {
    truth[rid].push_back(iface);
    candidates.push_back(iface);
  }
  std::size_t true_multi = 0;
  for (const auto& [rid, ifaces] : truth) true_multi += ifaces.size() > 1;
  std::sort(candidates.begin(), candidates.end());
  if (candidates.size() > 300) candidates.resize(300);

  // Phase 2: speedtrap resolution.
  alias::SpeedtrapConfig cfg;
  cfg.src = world.topo.vantages()[0].src;
  alias::SpeedtrapResolver resolver{cfg};
  const auto routers = resolver.resolve(net, candidates);

  // Score pairwise precision/recall within the candidate set.
  std::map<Ipv6Addr, std::uint64_t> truth_of;
  for (const auto& c : candidates) truth_of[c] = learned.at(c);
  std::size_t tp = 0, fp = 0, fn = 0;
  std::map<Ipv6Addr, std::size_t> cluster_of;
  for (std::size_t r = 0; r < routers.size(); ++r)
    for (const auto& iface : routers[r]) cluster_of[iface] = r;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    for (std::size_t j = i + 1; j < candidates.size(); ++j) {
      const bool truth_pair = truth_of[candidates[i]] == truth_of[candidates[j]];
      const auto ci = cluster_of.find(candidates[i]);
      const auto cj = cluster_of.find(candidates[j]);
      const bool inferred =
          ci != cluster_of.end() && cj != cluster_of.end() && ci->second == cj->second;
      tp += truth_pair && inferred;
      fp += !truth_pair && inferred;
      fn += truth_pair && !inferred;
    }
  }

  std::printf("resolution: %zu candidates -> %zu inferred routers"
              " (%llu alias probes, %zu unresponsive)\n",
              candidates.size(), routers.size(),
              static_cast<unsigned long long>(resolver.probes_sent()),
              resolver.unresponsive());
  std::size_t multi = 0;
  for (const auto& r : routers) multi += r.size() > 1;
  std::printf("multi-interface routers: inferred %zu (ground truth has %zu"
              " among all learned interfaces)\n",
              multi, true_multi);
  std::printf("pairwise alias inference: tp=%zu fp=%zu fn=%zu  precision=%.3f"
              " recall=%.3f\n",
              tp, fp, fn,
              tp + fp ? static_cast<double>(tp) / static_cast<double>(tp + fp) : 1.0,
              tp + fn ? static_cast<double>(tp) / static_cast<double>(tp + fn) : 1.0);
  bench::rule();
  std::printf("Expected shape: precision ~1.0 (the shared-counter monotonicity"
              " test admits essentially no false pairs)\nwith high recall on"
              " responsive candidates — consistent with speedtrap's published"
              " behaviour.\n");
  return 0;
}
