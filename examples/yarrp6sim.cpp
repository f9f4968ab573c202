// yarrp6sim — a yarrp-style command-line campaign driver.
//
// Mirrors the released yarrp6 tool's interface against the simulated
// Internet: pick a seed strategy, transform level, probing parameters and
// an output file; get a trace dump (io text format) you can re-analyze.
//
//   $ ./examples/yarrp6sim --seeds cdn-k32 --zn 64 --pps 1000 --max-ttl 16
//         --fill --vantage EU-NET --output /tmp/campaign.trace
//
// Hostile input fails before any probing, with exit status 2: a number
// that does not parse whole or lies outside its range, an unknown
// protocol, vantage or seed list, or an output file that cannot be opened.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>

#include "campaign/runner.hpp"
#include "io/trace_io.hpp"
#include "prober/yarrp6.hpp"
#include "seeds/sources.hpp"
#include "simnet/network.hpp"
#include "target/synthesis.hpp"
#include "target/transform.hpp"
#include "tools/parse_number.hpp"
#include "topology/collector.hpp"

using namespace beholder6;
using cli::parse_number;

namespace {

void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--seeds NAME] [--zn 1..64] [--pps N] [--max-ttl N] [--fill]\n"
      "          [--neighborhood] [--proto icmp6|udp|tcp] [--vantage NAME]\n"
      "          [--seed N] [--scale F] [--output FILE]\n"
      "seeds: caida dnsdb fiebig fdns_any cdn-k256 cdn-k32 6gen tum random\n",
      argv0);
}

}  // namespace

int main(int argc, char** argv) {
  std::string seeds_name = "caida", vantage_name = "US-EDU-1", output;
  unsigned zn = 64, max_ttl = 16;
  double pps = 1000, scale = 1.0;
  std::uint64_t seed = 20180514;
  bool fill = false, neighborhood = false;
  wire::Proto proto = wire::Proto::kIcmp6;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) { usage(argv[0]); std::exit(2); }
      return argv[++i];
    };
    if (arg == "--seeds") seeds_name = next();
    else if (arg == "--zn") zn = parse_number(arg.c_str(), next(), 1u, 64u);
    else if (arg == "--pps") pps = parse_number(arg.c_str(), next(), 1.0, 1e8);
    else if (arg == "--max-ttl")
      max_ttl = parse_number(arg.c_str(), next(), 1u, 255u);
    else if (arg == "--fill") fill = true;
    else if (arg == "--neighborhood") neighborhood = true;
    else if (arg == "--vantage") vantage_name = next();
    else if (arg == "--seed")
      seed = parse_number<std::uint64_t>(arg.c_str(), next(), 0, UINT64_MAX);
    else if (arg == "--scale")
      scale = parse_number(arg.c_str(), next(), 1e-3, 100.0);
    else if (arg == "--output") output = next();
    else if (arg == "--proto") {
      const std::string p = next();
      if (p == "icmp6") proto = wire::Proto::kIcmp6;
      else if (p == "udp") proto = wire::Proto::kUdp;
      else if (p == "tcp") proto = wire::Proto::kTcp;
      else {
        std::fprintf(stderr, "unknown protocol %s\n", p.c_str());
        usage(argv[0]);
        return 2;
      }
    } else {
      usage(argv[0]);
      return 2;
    }
  }

  // Open the output before any work: a bad path must not cost a campaign.
  std::ofstream out_file;
  std::optional<io::TextWriter> writer;
  if (!output.empty()) {
    out_file.open(output);
    if (!out_file) {
      std::fprintf(stderr, "cannot open %s for writing\n", output.c_str());
      return 2;
    }
    writer.emplace(out_file);
  }

  simnet::Topology topo{simnet::TopologyParams{.seed = seed}};
  const simnet::VantageInfo* vantage = nullptr;
  for (const auto& v : topo.vantages())
    if (v.name == vantage_name) vantage = &v;
  if (!vantage) {
    std::fprintf(stderr, "unknown vantage %s\n", vantage_name.c_str());
    return 2;
  }

  seeds::SeedScale sc;
  sc.scale = scale;
  target::SeedList list;
  const auto all = seeds::make_all(topo, sc, seed);
  for (const auto& l : all)
    if (l.name == seeds_name) list = l;
  if (list.name.empty()) {
    std::fprintf(stderr, "unknown seed list %s\n", seeds_name.c_str());
    return 2;
  }

  const auto targets = target::synthesize_fixediid(target::transform_zn(list, zn));
  std::fprintf(stderr, "yarrp6sim: %zu targets (%s z%u), vantage %s, %.0fpps\n",
               targets.size(), seeds_name.c_str(), zn, vantage->name.c_str(), pps);

  simnet::Network net{topo};
  prober::Yarrp6Config cfg;
  cfg.src = vantage->src;
  cfg.proto = proto;
  cfg.pps = pps;
  cfg.max_ttl = static_cast<std::uint8_t>(max_ttl);
  cfg.fill_mode = fill;
  cfg.neighborhood = neighborhood;

  topology::TraceCollector collector;
  prober::Yarrp6Source source{cfg, targets.addrs};
  campaign::ProbeStats stats;
  try {
    stats = campaign::CampaignRunner::run_one(
        net, source, cfg.endpoint(), cfg.pacing(), [&](const wire::DecodedReply& r) {
          collector.on_reply(r);
          if (writer) writer->write(io::TraceRecord::from_reply(r));
        });
  } catch (const std::exception& e) {  // e.g. the trace write failed
    std::fprintf(stderr, "campaign failed: %s\n", e.what());
    return 1;
  }

  std::fprintf(stderr,
               "done: %llu probes (%llu fills), %llu replies, %zu interfaces,"
               " %zu traces, %.1fs virtual\n",
               static_cast<unsigned long long>(stats.probes_sent),
               static_cast<unsigned long long>(stats.fills),
               static_cast<unsigned long long>(stats.replies),
               collector.interfaces().size(), collector.traces().size(),
               static_cast<double>(stats.elapsed_virtual_us) / 1e6);
  if (writer)
    std::fprintf(stderr, "wrote %zu records to %s\n", writer->written(),
                 output.c_str());
  return 0;
}
