// alias/speedtrap.hpp — Internet-scale IPv6 alias resolution (extension).
//
// The paper stops at interface-level discovery and names alias resolution
// (Luckie et al.'s speedtrap, IMC 2013) as the follow-on step toward
// router-level graphs (§7.2). This module implements that step against the
// simulated Internet, using speedtrap's actual mechanism:
//
//   1. Send oversized ICMPv6 echo requests to candidate interfaces, forcing
//      fragmented replies. Each fragment carries the responding router's
//      32-bit Identification counter.
//   2. Probe candidates in interleaved rounds. Two interfaces backed by one
//      router draw from one shared, monotonically increasing counter, so
//      the time-merged identification sequence of a true alias pair is
//      strictly increasing; independent counters almost surely violate
//      monotonicity somewhere in the interleaving.
//   3. Cluster interfaces by the pairwise shared-counter relation
//      (union-find) into inferred routers.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "netbase/ipv6.hpp"
#include "simnet/network.hpp"

namespace beholder6::alias {

struct SpeedtrapConfig {
  Ipv6Addr src;                  // vantage source address
  unsigned rounds = 6;           // interleaved probe rounds per interface
};

/// One interface's observed identification samples, in probe order.
struct IdSeries {
  Ipv6Addr iface;
  /// (global sequence number of the probe, observed identification).
  std::vector<std::pair<std::uint64_t, std::uint32_t>> samples;
};

/// True iff the two series are consistent with one shared monotonic
/// counter: their time-merged identification sequence strictly increases.
[[nodiscard]] bool shares_counter(const IdSeries& a, const IdSeries& b);

/// An inferred router: the set of interface addresses resolved to it.
using Router = std::vector<Ipv6Addr>;

class SpeedtrapResolver {
 public:
  explicit SpeedtrapResolver(SpeedtrapConfig cfg) : cfg_(cfg) {}

  /// Elicit fragment-identification series for each candidate interface.
  /// Interfaces that never answer with fragments are dropped (recorded in
  /// unresponsive()).
  [[nodiscard]] std::vector<IdSeries> collect(simnet::Network& net,
                                              const std::vector<Ipv6Addr>& candidates);

  /// Full resolution: collect, pairwise-test, cluster. Singleton routers
  /// are included (an interface with no alias is its own router).
  [[nodiscard]] std::vector<Router> resolve(simnet::Network& net,
                                            const std::vector<Ipv6Addr>& candidates);

  [[nodiscard]] std::size_t unresponsive() const { return unresponsive_; }
  [[nodiscard]] std::uint64_t probes_sent() const { return probes_sent_; }

 private:
  /// Send one oversized echo and extract the reply's fragment id.
  [[nodiscard]] std::optional<std::uint32_t> probe_once(simnet::Network& net,
                                                        const Ipv6Addr& iface);

  SpeedtrapConfig cfg_;
  std::size_t unresponsive_ = 0;
  std::uint64_t probes_sent_ = 0;
};

}  // namespace beholder6::alias
