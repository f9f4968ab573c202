// b6-targets — the target-generation pipeline as a command-line tool.
//
// Runs the paper's three-step process (seed sourcing → prefix
// transformation → target synthesis) against the simulated Internet's seed
// sources and writes the resulting target list, one address per line.
// Mirrors the released target lists that accompany the paper.
//
//   $ ./tools/b6-targets --seeds cdn-k32 --zn 64 --iid fixed
//   $ ./tools/b6-targets --seeds fdns_any --zn 48 --iid lowbyte --stats
//
// --stats prints a characterization (size, routed share, DPL distribution,
// IID class mix, MRA clustering) instead of the raw list.
//
// Hostile input fails before any work, with exit status 2: a number that
// does not parse whole or lies outside its range, an unknown IID strategy
// or an unknown seed list.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "analysis/mra.hpp"
#include "seeds/classify.hpp"
#include "seeds/sources.hpp"
#include "simnet/topology.hpp"
#include "target/characterize.hpp"
#include "target/synthesis.hpp"
#include "target/transform.hpp"
#include "tools/parse_number.hpp"

using namespace beholder6;
using cli::parse_number;

namespace {

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--seeds NAME] [--zn 1..64] [--iid fixed|lowbyte|known]\n"
               "          [--seed N] [--scale F] [--stats]\n"
               "seeds: caida dnsdb fiebig fdns_any cdn-k256 cdn-k32 6gen tum random\n",
               argv0);
}

}  // namespace

int main(int argc, char** argv) {
  std::string seeds_name = "caida", iid = "fixed";
  unsigned zn = 64;
  double scale = 1.0;
  std::uint64_t seed = 20180514;
  bool stats = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) { usage(argv[0]); std::exit(2); }
      return argv[++i];
    };
    if (arg == "--seeds") seeds_name = next();
    else if (arg == "--zn") zn = parse_number(arg.c_str(), next(), 1u, 64u);
    else if (arg == "--iid") {
      iid = next();
      if (iid != "fixed" && iid != "lowbyte" && iid != "known") {
        std::fprintf(stderr, "unknown IID strategy %s\n", iid.c_str());
        usage(argv[0]);
        return 2;
      }
    } else if (arg == "--seed")
      seed = parse_number<std::uint64_t>(arg.c_str(), next(), 0, UINT64_MAX);
    else if (arg == "--scale")
      scale = parse_number(arg.c_str(), next(), 1e-3, 100.0);
    else if (arg == "--stats") stats = true;
    else { usage(argv[0]); return 2; }
  }

  simnet::Topology topo{simnet::TopologyParams{.seed = seed}};
  seeds::SeedScale sc;
  sc.scale = scale;
  target::SeedList list;
  for (const auto& l : seeds::make_all(topo, sc, seed))
    if (l.name == seeds_name) list = l;
  if (list.name.empty()) {
    std::fprintf(stderr, "unknown seed list %s\n", seeds_name.c_str());
    return 2;
  }

  const auto prefixes = target::transform_zn(list, zn);
  target::TargetSet set;
  if (iid == "lowbyte") {
    set = target::synthesize_lowbyte1(prefixes);
  } else if (iid == "known") {
    std::vector<Ipv6Addr> known;
    for (const auto& e : list.entries)
      if (e.len() == 128) known.push_back(e.base());
    set = target::synthesize_known(prefixes, known);
  } else {
    set = target::synthesize_fixediid(prefixes);
  }

  if (!stats) {
    for (const auto& a : set.addrs) std::printf("%s\n", a.to_string().c_str());
    return 0;
  }

  std::printf("set: %s (%s z%u, %s IID)\n", set.name.c_str(), seeds_name.c_str(),
              zn, iid.c_str());
  std::printf("targets: %zu\n", set.size());
  std::size_t routed = 0;
  for (const auto& a : set.addrs) routed += topo.bgp().covers(a);
  std::printf("routed:  %zu (%.1f%%)\n", routed,
              set.addrs.empty() ? 0.0
                                : 100.0 * static_cast<double>(routed) /
                                      static_cast<double>(set.size()));

  const auto mix = seeds::classify_all(set.addrs);
  std::printf("iids:    %.1f%% lowbyte, %.1f%% eui64, %.1f%% random\n",
              100 * mix.frac_lowbyte(), 100 * mix.frac_eui64(),
              100 * mix.frac_random());

  const auto cdf = target::dpl_cdf(target::dpl_of(set.addrs));
  std::printf("dpl cdf: ");
  for (unsigned p = 24; p <= 64; p += 8) std::printf("<=%u:%.2f ", p, cdf[p]);
  std::printf("\n");

  const analysis::MraAnalysis mra{set.addrs};
  std::printf("mra:     /32:%zu /48:%zu /56:%zu /64:%zu aggregates\n",
              mra.aggregate_count(32), mra.aggregate_count(48),
              mra.aggregate_count(56), mra.aggregate_count(64));
  const auto cc = mra.class_counts(64);
  std::printf("spatial: %zu isolated, %zu sparse, %zu dense (per /64)\n",
              cc.isolated, cc.sparse, cc.dense);
  return 0;
}
