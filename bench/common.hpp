// bench/common.hpp — shared harness for the experiment-reproduction
// binaries. Each bench regenerates one table or figure of the paper; this
// header provides the world (topology + seed lists + synthesized target
// sets) and the campaign runner all of them share.
#pragma once

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "campaign/parallel.hpp"
#include "campaign/runner.hpp"
#include "netbase/rng.hpp"
#include "prober/yarrp6.hpp"
#include "seeds/sources.hpp"
#include "simnet/network.hpp"
#include "simnet/topology.hpp"
#include "target/characterize.hpp"
#include "target/synthesis.hpp"
#include "target/transform.hpp"
#include "topology/collector.hpp"

namespace beholder6::bench {

/// A named, synthesized probe-target set plus where it came from.
struct NamedSet {
  std::string seed_name;  // e.g. "cdn-k32"
  unsigned zn = 64;       // 48 or 64
  target::TargetSet set;
};

/// The Table 7 campaign configuration (pps 1000, 16 TTLs, fill mode) from
/// vantage `src`.
[[nodiscard]] inline prober::Yarrp6Config table7_campaign_cfg(const Ipv6Addr& src) {
  prober::Yarrp6Config cfg;
  cfg.src = src;
  cfg.pps = 1000;
  cfg.max_ttl = 16;
  cfg.fill_mode = true;
  return cfg;
}

/// Order-sensitive digest of a merged reply stream — the determinism
/// fingerprint bench_table7_campaigns compares across thread counts.
[[nodiscard]] inline std::uint64_t reply_digest(
    const std::vector<campaign::ShardReply>& replies) {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (const auto& r : replies) {
    h = splitmix64(h ^ r.virtual_us);
    h = splitmix64(h ^ r.shard);
    h = splitmix64(h ^ r.subshard);
    h = splitmix64(h ^ Ipv6AddrHash{}(r.reply.responder));
    h = splitmix64(h ^ static_cast<std::uint64_t>(r.reply.type));
    h = splitmix64(h ^ r.reply.probe.ttl);
    h = splitmix64(h ^ r.reply.rtt_us);
  }
  return h;
}

/// The reproducible experiment world.
struct World {
  explicit World(double scale = 1.0, std::uint64_t seed = 20180514)
      : topo(simnet::TopologyParams{seed}) {
    seeds::SeedScale sc;
    sc.scale = scale;
    seed_lists = seeds::make_all(topo, sc, seed);
  }

  /// Synthesize seed list `name` at transform level zn with the fixed IID.
  [[nodiscard]] NamedSet synth(const std::string& name, unsigned zn) const {
    for (const auto& l : seed_lists)
      if (l.name == name)
        return NamedSet{name, zn,
                        target::synthesize_fixediid(target::transform_zn(l, zn))};
    std::fprintf(stderr, "unknown seed list %s\n", name.c_str());
    std::abort();
  }

  /// The paper's 18 campaign sets: every list at z48 and z64 (cdn twice).
  [[nodiscard]] std::vector<NamedSet> all_sets(bool include_random = false) const {
    std::vector<NamedSet> out;
    for (const auto& l : seed_lists) {
      if (!include_random && l.name == "random") continue;
      for (unsigned zn : {48u, 64u}) out.push_back(synth(l.name, zn));
    }
    return out;
  }

  simnet::Topology topo;
  std::vector<target::SeedList> seed_lists;
};

/// Result of one yarrp6 campaign.
struct Campaign {
  prober::ProbeStats probe_stats;
  simnet::NetworkStats net_stats;
  topology::TraceCollector collector;

  /// Accumulate another campaign's counters (cross-campaign report rows).
  /// Collector state is deliberately not merged — use a shared reply sink
  /// when merged topology is wanted.
  Campaign& operator+=(const Campaign& o) {
    probe_stats += o.probe_stats;
    net_stats += o.net_stats;
    return *this;
  }
};

/// Run one yarrp6 campaign from a vantage against `targets` through the
/// campaign engine. The discovery curve is indexed by probes actually
/// injected.
inline Campaign run_yarrp(const simnet::Topology& topo,
                          const simnet::VantageInfo& vantage,
                          const std::vector<Ipv6Addr>& targets,
                          prober::Yarrp6Config cfg = {},
                          simnet::NetworkParams np = {}) {
  Campaign campaign;
  cfg.src = vantage.src;
  simnet::Network net{topo, np};
  prober::Yarrp6Source source{cfg, targets};
  campaign.probe_stats = campaign::CampaignRunner::run_one(
      net, source, cfg.endpoint(), cfg.pacing(), [&](const wire::DecodedReply& r) {
        campaign.collector.on_reply(r, net.stats().probes);
      });
  campaign.net_stats = net.stats();
  return campaign;
}

/// Human-size formatting, paper-style: 1.3M, 105.2k, 421.
inline std::string human(double v) {
  char buf[32];
  if (v >= 1e6) std::snprintf(buf, sizeof buf, "%.1fM", v / 1e6);
  else if (v >= 1e3) std::snprintf(buf, sizeof buf, "%.1fk", v / 1e3);
  else std::snprintf(buf, sizeof buf, "%.0f", v);
  return buf;
}

inline void rule(char c = '-') {
  for (int i = 0; i < 110; ++i) std::putchar(c);
  std::putchar('\n');
}

}  // namespace beholder6::bench
