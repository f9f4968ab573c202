// study_eui64_cpe — reproduces §5.1's EUI-64 concentration analysis: "Of
// these EUI-64 router addresses, 59% are from one of just two
// manufacturers; 99.9% of each of those address are in just two ISP
// networks ... they are Customer Premises Equipment (CPE) routers in
// ostensibly large, homogeneous IPv6 deployments." We run the two
// EUI-64-heavy campaigns (cdn-k32 and tum, z64) from one vantage, extract
// the OUIs embedded in responding interface addresses, and measure (a) the
// share of EUI-64 interfaces belonging to the top two OUIs, and (b) how
// concentrated each of those OUIs is in its origin network.
#include <map>
#include <set>

#include "bench/common.hpp"
#include "netbase/eui64.hpp"

using namespace beholder6;

int main(int argc, char** argv) {
  const double scale = argc > 1 ? std::atof(argv[1]) : 1.0;
  bench::World world{scale};
  const auto& vantage = world.topo.vantages()[0];

  std::set<Ipv6Addr> eui_ifaces;
  for (const char* list : {"cdn-k32", "tum"}) {
    const auto set = world.synth(list, 64);
    prober::Yarrp6Config cfg;
    cfg.pps = 1000;
    cfg.max_ttl = 16;
    cfg.fill_mode = true;
    const auto c = bench::run_yarrp(world.topo, vantage, set.set.addrs, cfg);
    for (const auto& iface : c.collector.interfaces())
      if (is_eui64(iface)) eui_ifaces.insert(iface);
  }

  // OUI census.
  std::map<std::uint32_t, std::size_t> by_oui;
  std::map<std::uint32_t, std::map<simnet::Asn, std::size_t>> oui_asn;
  for (const auto& iface : eui_ifaces) {
    const auto mac = eui64_extract(iface);
    ++by_oui[mac->oui()];
    if (const auto asn = world.topo.origin(iface)) ++oui_asn[mac->oui()][*asn];
  }
  std::vector<std::pair<std::size_t, std::uint32_t>> ranked;
  for (const auto& [oui, n] : by_oui) ranked.emplace_back(n, oui);
  std::sort(ranked.rbegin(), ranked.rend());

  std::printf("EUI-64 CPE concentration study (cdn-k32 + tum z64, %s)\n",
              vantage.name.c_str());
  bench::rule('=');
  std::printf("EUI-64 router interfaces discovered: %zu, distinct OUIs: %zu\n",
              eui_ifaces.size(), by_oui.size());
  bench::rule();
  std::printf("%-12s %10s %8s   %s\n", "OUI", "ifaces", "share", "origin networks");
  std::size_t top2 = 0;
  for (std::size_t i = 0; i < ranked.size() && i < 5; ++i) {
    const auto [n, oui] = ranked[i];
    if (i < 2) top2 += n;
    std::string asns;
    std::size_t dominant = 0;
    for (const auto& [asn, cnt] : oui_asn[oui]) {
      asns += "AS" + std::to_string(asn) + ":" + std::to_string(cnt) + " ";
      dominant = std::max(dominant, cnt);
    }
    std::printf("%02x:%02x:%02x     %10zu %7.1f%%   %s(%.1f%% in its top network)\n",
                oui >> 16, (oui >> 8) & 0xff, oui & 0xff, n,
                100.0 * static_cast<double>(n) /
                    static_cast<double>(eui_ifaces.size()),
                asns.c_str(),
                100.0 * static_cast<double>(dominant) / static_cast<double>(n));
  }
  bench::rule();
  std::printf("top-2 OUIs hold %.0f%% of all EUI-64 interfaces\n",
              100.0 * static_cast<double>(top2) /
                  static_cast<double>(eui_ifaces.size()));
  std::printf(
      "Expected shape (paper §5.1): a majority (paper: 59%%) of EUI-64"
      " router addresses carry one of just two\nmanufacturers' OUIs, and"
      " ~100%% of each manufacturer's addresses sit in a single ISP — the"
      " signature of\nlarge homogeneous CPE deployments (and the privacy"
      " exposure §7.1 warns about: the OUI leaks the router\nmodel to"
      " anyone tracerouting a subscriber).\n");
  return 0;
}
