// study_doubletree — reproduces the §4.2 Doubletree discussion: probing
// cost, discovery, and near-vantage responsiveness of yarrp6 vs sequential
// vs Doubletree under ICMPv6 rate limiting, plus the backward-probing
// bucket-drain pathology.
#include "bench/common.hpp"

#include "prober/doubletree.hpp"
#include "prober/sequential.hpp"
#include "wire/headers.hpp"

using namespace beholder6;

namespace {

/// One method's campaign. Hop1Resp is the share of hop-1 probes that drew
/// a reply and RateLtd the share of all probes whose reply a router's
/// bucket suppressed, so methods that send different numbers of probes
/// compare directly.
struct Row {
  std::uint64_t probes = 0;
  std::size_t interfaces = 0;
  std::uint64_t hop1_sent = 0;
  std::uint64_t hop1_answered = 0;
  std::uint64_t rate_limited = 0;
};

Row run(const simnet::Topology& topo, campaign::ProbeSource& source,
        const campaign::Endpoint& endpoint, const campaign::PacingPolicy& pacing) {
  Row row;
  simnet::Network net{topo, simnet::NetworkParams{}};
  net.set_probe_observer([&row](const simnet::Packet& probe,
                                std::span<const simnet::Packet> replies) {
    const auto ip = wire::Ipv6Header::decode(probe);
    if (!ip || ip->hop_limit != 1) return;
    ++row.hop1_sent;
    row.hop1_answered += !replies.empty();
  });
  topology::TraceCollector c;
  row.probes = campaign::CampaignRunner::run_one(
                   net, source, endpoint, pacing,
                   [&](const wire::DecodedReply& r) { c.on_reply(r); })
                   .probes_sent;
  row.interfaces = c.interfaces().size();
  row.rate_limited = net.stats().rate_limited;
  return row;
}

std::string percent(std::uint64_t part, std::uint64_t whole) {
  if (whole == 0) return "-";
  char buf[16];
  std::snprintf(buf, sizeof buf, "%.0f%%",
                100.0 * static_cast<double>(part) / static_cast<double>(whole));
  return buf;
}

void print(const char* method, double pps, const Row& row) {
  std::printf("%-12s %8.0f %10s %10zu %10s %10s", method, pps,
              bench::human(static_cast<double>(row.probes)).c_str(), row.interfaces,
              percent(row.hop1_answered, row.hop1_sent).c_str(),
              percent(row.rate_limited, row.probes).c_str());
}

}  // namespace

int main() {
  bench::World world;
  const auto set = world.synth("caida", 64);
  const auto& vantage = world.topo.vantages()[0];

  std::printf("Doubletree study (caida z64 targets, vantage %s)\n",
              vantage.name.c_str());
  bench::rule('=');
  std::printf("%-12s %8s %10s %10s %10s %10s\n", "Method", "pps", "Probes",
              "IntAddrs", "Hop1Resp", "RateLtd");
  bench::rule();

  for (const double pps : {20.0, 1000.0}) {
    {
      prober::Yarrp6Config cfg;
      cfg.src = vantage.src;
      cfg.pps = pps;
      prober::Yarrp6Source src{cfg, set.set.addrs};
      print("yarrp6", pps, run(world.topo, src, cfg.endpoint(), cfg.pacing()));
      std::printf("\n");
    }
    {
      prober::SequentialConfig cfg;
      cfg.src = vantage.src;
      cfg.pps = pps;
      prober::SequentialSource src{cfg, set.set.addrs};
      print("sequential", pps, run(world.topo, src, cfg.endpoint(), cfg.pacing()));
      std::printf("\n");
    }
    {
      prober::DoubletreeConfig cfg;
      cfg.src = vantage.src;
      cfg.pps = pps;
      cfg.start_ttl = 6;
      prober::StopSet stop_set;
      prober::DoubletreeSource src{cfg, set.set.addrs, stop_set};
      print("doubletree", pps, run(world.topo, src, cfg.endpoint(), cfg.pacing()));
      std::printf("  (stop set: %zu)\n", stop_set.size());
    }
  }
  bench::rule();
  std::printf(
      "Expected shape (paper): at 20pps all methods are comparable, with"
      " Doubletree cheapest in probes (stop set);\nat 1kpps yarrp6 keeps"
      " hop-1 responsiveness near 100%% while sequential collapses;"
      " Doubletree sits between,\nbut its backward probing keeps draining"
      " rate-limited hops (high RateLtd relative to its probe count).\n");
  return 0;
}
