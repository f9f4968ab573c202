// subnet_discovery — infer subnet structure from traces (paper §6).
//
// Probes university and residential address space, runs discoverByPathDiv
// (path-divergence inference + the IA hack), validates the candidate
// subnets against the simulator's ground truth, and prints a sample of the
// inferences with their true counterparts.
//
//   $ ./examples/subnet_discovery
#include <cstdio>

#include "analysis/pathdiv.hpp"
#include "analysis/validate.hpp"
#include "campaign/runner.hpp"
#include "prober/yarrp6.hpp"
#include "simnet/network.hpp"
#include "target/synthesis.hpp"
#include "topology/collector.hpp"

using namespace beholder6;

int main() {
  simnet::Topology topo{simnet::TopologyParams{.seed = 99}};
  const auto& vantage = topo.vantages()[0];

  // Target every enumerable university LAN plus eyeball customer space.
  std::vector<Ipv6Addr> targets;
  for (const auto& as : topo.ases()) {
    if (as.type != simnet::AsType::kUniversity &&
        as.type != simnet::AsType::kEyeballIsp)
      continue;
    for (const auto& s : topo.enumerate_subnets(as, 120))
      targets.push_back(s.base() | Ipv6Addr::from_halves(0, target::kFixedIid));
  }
  std::printf("probing %zu targets in university + residential space...\n\n",
              targets.size());

  simnet::Network net{topo};
  prober::Yarrp6Config cfg;
  cfg.src = vantage.src;
  cfg.pps = 2000;
  cfg.max_ttl = 20;
  cfg.fill_mode = true;
  topology::TraceCollector collector;
  prober::Yarrp6Source src{cfg, targets};
  campaign::CampaignRunner::run_one(
      net, src, cfg.endpoint(), cfg.pacing(),
      [&](const wire::DecodedReply& r) { collector.on_reply(r); });

  const auto result = analysis::discover_by_path_div(collector, topo, vantage);
  const auto prefixes = result.distinct_prefixes();
  std::printf("pairs examined  : %zu (divergent: %zu)\n", result.pairs_examined,
              result.pairs_divergent);
  std::printf("IA-hack /64s    : %zu\n", result.ia_hack_count);
  std::printf("candidate subnets: %zu distinct prefixes\n\n", prefixes.size());

  const auto report = analysis::validate_candidates(result.candidates, topo);
  std::printf("validation vs ground truth: %zu candidates, %.1f%% exact, "
              "%zu more-specific, %zu short by 1-2 bits\n\n",
              report.candidates, 100 * report.exact_rate(),
              report.more_specific, report.one_bit_short + report.two_bits_short);

  std::printf("%-34s %-12s %s\n", "candidate (>= lower bound)", "via",
              "ground truth subnet");
  for (int i = 0; const auto& c : result.candidates) {
    if (i++ >= 10) break;
    const auto truth = topo.true_subnet(c.target);
    std::printf("%-34s %-12s %s\n", c.prefix().to_string().c_str(),
                c.via_ia_hack ? "IA hack" : "divergence",
                truth ? truth->to_string().c_str() : "(none)");
  }
  return 0;
}
