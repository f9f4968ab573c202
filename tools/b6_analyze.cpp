// b6-analyze — offline analysis of a persisted yarrp6sim campaign.
//
// Reads a trace dump (io text or binary format, as written by
// examples/yarrp6sim --output), reassembles the traces, and reports the
// paper's campaign-level metrics: interface addresses, response mix, path
// lengths, EUI-64 analysis, link-graph structure, and — when given the
// topology seed the campaign ran against — subnet discovery with ground-
// truth validation.
//
// A malformed --seed, an unknown --vantage (when subnet discovery is on) or
// an unexpected argument exits 2 before the trace file is read. A corrupt
// trace file (a binary one that does not decode, or a text one with
// malformed lines, e.g. one truncated mid-line) exits 1.
//
//   $ ./examples/yarrp6sim --seeds cdn-k32 --output /tmp/c.trace
//   $ ./tools/b6-analyze /tmp/c.trace --seed 20180514 --vantage US-EDU-1
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>

#include "analysis/pathdiv.hpp"
#include "analysis/validate.hpp"
#include "io/trace_io.hpp"
#include "netbase/eui64.hpp"
#include "seeds/classify.hpp"
#include "topology/collector.hpp"
#include "topology/graph.hpp"
#include "tools/parse_number.hpp"

using namespace beholder6;

namespace {

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s FILE [--seed N] [--vantage NAME] [--no-subnets]\n"
               "FILE is an io text or binary trace dump (see yarrp6sim --output).\n",
               argv0);
}

std::vector<io::TraceRecord> load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    std::exit(1);
  }
  // Sniff the magic: binary dumps start with "B6TR" framing.
  char head[4] = {};
  in.read(head, 4);
  in.seekg(0);
  if (std::memcmp(head, "RT6B", 4) == 0 || std::memcmp(head, "B6TR", 4) == 0) {
    const auto recs = io::read_binary(in);
    if (!recs) {
      std::fprintf(stderr, "corrupt binary trace file\n");
      std::exit(1);
    }
    return *recs;
  }
  const auto res = io::read_text(in);
  if (res.malformed) {
    std::fprintf(stderr, "corrupt text trace file: %zu malformed lines\n",
                 res.malformed);
    std::exit(1);
  }
  return res.records;
}

}  // namespace

int main(int argc, char** argv) {
  std::string path, vantage_name = "US-EDU-1";
  std::uint64_t seed = 20180514;
  bool subnets = true;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) { usage(argv[0]); std::exit(2); }
      return argv[++i];
    };
    if (arg == "--seed")
      seed = cli::parse_number<std::uint64_t>(arg.c_str(), next(), 0, UINT64_MAX);
    else if (arg == "--vantage") vantage_name = next();
    else if (arg == "--no-subnets") subnets = false;
    else if (!arg.starts_with("--") && path.empty()) path = arg;
    else { usage(argv[0]); return 2; }
  }
  if (path.empty()) {
    usage(argv[0]);
    return 2;
  }

  // Subnet discovery needs the campaign's topology and vantage; resolve
  // both before the (possibly large) trace file is read.
  std::optional<simnet::Topology> topo;
  const simnet::VantageInfo* vantage = nullptr;
  if (subnets) {
    topo.emplace(simnet::TopologyParams{.seed = seed});
    for (const auto& v : topo->vantages())
      if (v.name == vantage_name) vantage = &v;
    if (!vantage) {
      std::fprintf(stderr, "unknown vantage %s\n", vantage_name.c_str());
      return 2;
    }
  }

  const auto records = load(path);
  topology::TraceCollector collector;
  for (const auto& rec : records) collector.on_reply(rec.to_reply());

  std::printf("records:    %zu\n", records.size());
  std::printf("traces:     %zu\n", collector.traces().size());
  std::printf("interfaces: %zu unique (TE sources)\n", collector.interfaces().size());
  std::printf("responders: %zu unique (all ICMPv6 sources)\n",
              collector.responders().size());
  std::printf("responses:  %llu TE, %llu non-TE\n",
              static_cast<unsigned long long>(collector.te_responses()),
              static_cast<unsigned long long>(collector.non_te_responses()));
  std::printf("reached:    %.1f%% of traces\n", 100 * collector.reached_fraction());
  std::printf("path len:   median %u, p95 %u\n", collector.path_len_percentile(0.5),
              collector.path_len_percentile(0.95));

  const auto eui = collector.eui64_report();
  std::printf("eui-64:     %zu interfaces (%.0f%%), path offset median %d, p5 %d\n",
              eui.eui64_interfaces, 100 * eui.frac_of_interfaces,
              eui.offset_median, eui.offset_p5);

  std::vector<Ipv6Addr> ifaces(collector.interfaces().begin(),
                               collector.interfaces().end());
  const auto mix = seeds::classify_all(ifaces);
  std::printf("iface iids: %.0f%% lowbyte, %.0f%% eui64, %.0f%% random\n",
              100 * mix.frac_lowbyte(), 100 * mix.frac_eui64(),
              100 * mix.frac_random());

  const auto graph = topology::LinkGraph::from_traces(collector);
  std::printf("link graph: %zu nodes, %zu links, max degree %zu, "
              "%zu components (largest %zu), degeneracy %zu\n",
              graph.node_count(), graph.link_count(), graph.max_degree(),
              graph.component_count(), graph.largest_component(),
              graph.degeneracy());

  const auto ia = analysis::ia_hack(collector);
  std::printf("ia hack:    %zu /64 gateway pinnings\n", ia.size());

  if (subnets) {
    const auto res = analysis::discover_by_path_div(collector, *topo, *vantage);
    std::printf("subnets:    %zu candidates from %zu divergent pairs "
                "(%zu pairs examined)\n",
                res.candidates.size(), res.pairs_divergent, res.pairs_examined);
    const auto val = analysis::validate_candidates(res.candidates, *topo);
    std::printf("validated:  %zu exact, %zu more-specific, %zu short-by-1, "
                "%zu short-by-2, %zu other\n",
                val.exact_matches, val.more_specific, val.one_bit_short,
                val.two_bits_short, val.other);
  }
  return 0;
}
