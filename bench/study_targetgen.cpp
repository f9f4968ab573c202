// study_targetgen — extension: generative target strategies head to head.
//
// The paper uses 6Gen for generated seeds and cites Entropy/IP as the other
// structure-learning generator. This study fits both on the same input
// hitlist (fdns_any) and compares their discovery power per probe against
// the routed-random control, all at equal target budgets.
#include "bench/common.hpp"
#include "seeds/entropy.hpp"

using namespace beholder6;

int main() {
  bench::World world;
  const auto& vantage = world.topo.vantages()[0];

  // Common input hitlist.
  const target::SeedList* fdns = nullptr;
  for (const auto& l : world.seed_lists)
    if (l.name == "fdns_any") fdns = &l;
  std::vector<Ipv6Addr> input;
  for (const auto& e : fdns->entries)
    if (e.len() == 128) input.push_back(e.base());

  const std::size_t budget = 6000;

  struct Contender {
    std::string name;
    target::TargetSet set;
  };
  std::vector<Contender> contenders;

  // Entropy/IP-style model.
  const auto model = seeds::EntropyModel::fit(input);
  contenders.push_back(
      {"entropy/ip", target::synthesize_fixediid(target::transform_zn(
                         model.generate_seeds(budget, Rng{1}, "entropy"), 64))});

  // 6Gen loose clustering (already budgeted similarly).
  contenders.push_back({"6gen", world.synth("6gen", 64).set});

  // Routed-random control.
  contenders.push_back({"random", world.synth("random", 64).set});

  std::printf("Target-generation study (input: fdns_any, %zu addresses)\n",
              input.size());
  bench::rule('=');
  std::printf("%-12s %9s %9s %9s %10s %12s\n", "generator", "targets",
              "probes", "ifaces", "ifc/1kprb", "routed%");
  bench::rule();
  for (auto& c : contenders) {
    if (c.set.addrs.size() > budget) c.set.addrs.resize(budget);
    std::size_t routed = 0;
    for (const auto& a : c.set.addrs) routed += world.topo.bgp().covers(a);
    prober::Yarrp6Config cfg;
    cfg.pps = 2000;
    cfg.max_ttl = 16;
    const auto r = bench::run_yarrp(world.topo, vantage, c.set.addrs, cfg);
    std::printf("%-12s %9zu %9s %9zu %10.2f %11.1f%%\n", c.name.c_str(),
                c.set.addrs.size(),
                bench::human(static_cast<double>(r.probe_stats.probes_sent)).c_str(),
                r.collector.interfaces().size(),
                1000.0 * static_cast<double>(r.collector.interfaces().size()) /
                    static_cast<double>(r.probe_stats.probes_sent),
                100.0 * static_cast<double>(routed) /
                    static_cast<double>(c.set.addrs.size()));
  }
  bench::rule();
  std::printf("Model structure: %zu segments over 32 nybbles (",
              model.segments().size());
  for (const auto& s : model.segments())
    std::printf("%u-%u:%s ", s.first, s.last,
                s.kind == seeds::Segment::Kind::kConstant ? "const"
                : s.kind == seeds::Segment::Kind::kValueSet ? "dict"
                                                            : "rand");
  std::printf(")\n");
  std::printf("Expected shape: both structure learners beat routed-random in"
              " interfaces per probe; they concentrate\nprobes where the"
              " input hitlist showed live structure, at the cost of breadth.\n");
  return 0;
}
