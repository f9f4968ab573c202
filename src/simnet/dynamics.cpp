#include "simnet/dynamics.hpp"

#include <algorithm>

#include "netbase/rng.hpp"
#include "wire/headers.hpp"

namespace beholder6::simnet {

std::vector<std::uint64_t> churn_candidate_routers(
    const Topology& topo, const VantageInfo& vantage,
    std::span<const Ipv6Addr> sample_targets) {
  std::vector<std::uint64_t> ids;
  const auto proto = static_cast<std::uint8_t>(wire::Proto::kIcmp6);
  Path path;
  for (const auto& target : sample_targets) {
    // Both ECMP variants: a width-2 hop exposes a different sibling per
    // variant, and failing either is a legitimate scenario.
    for (std::uint64_t variant = 0; variant < kEcmpVariantPeriod; ++variant) {
      topo.path_into(vantage, target, variant, proto, path);
      // Skip the premise chain (every probe of this vantage crosses it, so
      // failing it silences the whole campaign — a degenerate scenario)
      // and keep genuinely mid-path infrastructure.
      for (std::size_t i = vantage.premise_hops; i < path.hops.size(); ++i)
        ids.push_back(path.hops[i].router_id);
    }
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

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
  for (unsigned i = 0; i < params.link_failures && !routers.empty(); ++i) {
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

  if (params.global_reconvergences) {
    for (const double frac : {0.35, 0.7}) {
      DynamicsEvent ev;
      ev.kind = DynamicsKind::kEcmpReconverge;
      ev.cell_base = 0;
      ev.cell_mask = 0;  // every cell
      ev.bump = 1;
      ev.at_us = 1 + static_cast<std::uint64_t>(
                         frac * static_cast<double>(horizon));
      schedule.add(ev);
    }
  }
  for (unsigned i = 0; i < params.scoped_reconvergences && !sample_targets.empty();
       ++i) {
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

  if (params.rate_change) {
    DynamicsEvent ev;
    ev.kind = DynamicsKind::kRateLimitScale;
    ev.rate_scale = 0.5;
    ev.at_us = at(0.4, 0.6);
    schedule.add(ev);
  }
  if (params.loss_swap) {
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
  }
  return schedule;
}

}  // namespace beholder6::simnet
