#include "simnet/dynamics.hpp"

#include <algorithm>

#include "netbase/flat_map.hpp"
#include "netbase/rng.hpp"
#include "wire/headers.hpp"

namespace beholder6::simnet {

std::vector<std::uint64_t> churn_candidate_routers(
    const Topology& topo, const VantageInfo& vantage,
    std::span<const Ipv6Addr> sample_targets) {
  // A path is a function of the target's /64 cell (Topology::path), so
  // each cell is resolved once, from the first target in it. Its descent
  // reads no flow hash, so one serves both ECMP variants, and the variants'
  // heads depend only on the destination AS, so each AS's are read once.
  netbase::FlatSet<std::uint64_t> cells;
  netbase::FlatSet<std::uint64_t> dest_ases;  // 0: the unrouted head
  netbase::FlatSet<std::uint64_t> found;
  cells.reserve(sample_targets.size());
  const auto proto = static_cast<std::uint8_t>(wire::Proto::kIcmp6);
  Path descent;
  for (const auto& target : sample_targets) {
    if (!cells.insert(target.hi()).second) continue;
    const auto heads = topo.path_parts(vantage, target, proto, descent);
    // The descent follows the premise chain, so all of it is mid-path.
    for (const Hop& hop : descent.hops) found.insert(hop.router_id);
    if (!dest_ases.insert(descent.dest_asn).second) continue;
    // Both ECMP variants: a width-2 hop exposes a different sibling per
    // variant, and failing either is a legitimate scenario. Skip the
    // premise chain (every probe of this vantage crosses it, so failing it
    // silences the whole campaign — a degenerate scenario) and keep
    // genuinely mid-path infrastructure.
    for (const auto head : heads)
      for (std::size_t i = vantage.premise_hops; i < head.size(); ++i)
        found.insert(head[i].router_id);
  }
  // beholder6: lint-allow(unordered-iter): copied out, then sorted
  std::vector<std::uint64_t> ids(found.begin(), found.end());
  std::sort(ids.begin(), ids.end());
  return ids;
}

namespace {

constexpr unsigned kLinkFailures = 2;         // down/up pairs
constexpr unsigned kScopedReconvergences = 2;  // per-/48 ECMP re-hashes

}  // namespace

DynamicsSchedule make_churn_schedule(const Topology& topo,
                                     const VantageInfo& vantage,
                                     std::span<const Ipv6Addr> sample_targets,
                                     const ChurnParams& params) {
  DynamicsSchedule schedule;
  Rng rng{splitmix64(params.seed ^ 0xc4a87ea11ULL)};
  const std::uint64_t horizon = std::max<std::uint64_t>(params.horizon_us, 16);
  // Virtual time inside [lo, hi) fractions of the horizon, never at 0 (an
  // event due at time zero is legal but makes "mid-campaign" vacuous).
  auto at = [&](double lo, double hi) {
    const auto lo_us = static_cast<std::uint64_t>(lo * static_cast<double>(horizon));
    const auto hi_us = static_cast<std::uint64_t>(hi * static_cast<double>(horizon));
    return 1 + lo_us + rng.below(std::max<std::uint64_t>(1, hi_us - lo_us));
  };

  const auto routers = churn_candidate_routers(topo, vantage, sample_targets);
  for (unsigned i = 0; i < kLinkFailures && !routers.empty(); ++i) {
    DynamicsEvent down;
    down.kind = DynamicsKind::kLinkDown;
    down.router_id = routers[rng.below(routers.size())];
    // Alternate loud and silent failures so both reply semantics are
    // exercised by one schedule.
    down.silent = (i % 2) == 1;
    down.at_us = at(0.1, 0.4);
    schedule.add(down);
    DynamicsEvent up;
    up.kind = DynamicsKind::kLinkUp;
    up.router_id = down.router_id;
    up.at_us = std::min(horizon - 1, down.at_us + horizon / 4);
    schedule.add(up);
  }

  for (const double frac : {0.35, 0.7}) {
    DynamicsEvent ev;
    ev.kind = DynamicsKind::kEcmpReconverge;
    ev.cell_base = 0;
    ev.cell_mask = 0;  // every cell
    ev.bump = 1;
    ev.at_us =
        1 + static_cast<std::uint64_t>(frac * static_cast<double>(horizon));
    schedule.add(ev);
  }
  for (unsigned i = 0; i < kScopedReconvergences && !sample_targets.empty(); ++i) {
    DynamicsEvent ev;
    ev.kind = DynamicsKind::kEcmpReconverge;
    // One PoP's /48 worth of /64 cells: the bits below /48 in the upper
    // half of the address are the aggregation/subnet levels.
    ev.cell_mask = ~std::uint64_t{0xffff};
    ev.cell_base =
        sample_targets[rng.below(sample_targets.size())].hi() & ev.cell_mask;
    ev.bump = 1 + rng.below(kEcmpVariantPeriod > 1 ? kEcmpVariantPeriod - 1 : 1);
    ev.at_us = at(0.45, 0.9);
    schedule.add(ev);
  }

  DynamicsEvent rate;
  rate.kind = DynamicsKind::kRateLimitScale;
  rate.rate_scale = 0.5;
  rate.at_us = at(0.4, 0.6);
  schedule.add(rate);

  DynamicsEvent on;
  on.kind = DynamicsKind::kLossModel;
  on.reply_loss = 0.05;
  on.reply_dup = 0.03;
  on.at_us = at(0.5, 0.6);
  schedule.add(on);
  DynamicsEvent off;
  off.kind = DynamicsKind::kLossModel;
  off.reply_loss = 0.0;
  off.reply_dup = 0.0;
  off.at_us = at(0.8, 0.9);
  schedule.add(off);
  return schedule;
}

}  // namespace beholder6::simnet
