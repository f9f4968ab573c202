// analysis/mra.hpp — Multi-Resolution Aggregate analysis of address sets.
//
// Plonka and Berger (IMC 2015, cited in §2 of the paper) classify active
// IPv6 addresses spatially by aggregating them at multiple prefix lengths
// and examining how the population distributes across aggregates at each
// resolution. This module provides that analysis for seed lists, target
// sets and discovered-interface sets:
//
//   * per-resolution aggregate counts,
//   * densest aggregates at a resolution (the "clusters" that both 6Gen
//     and the paper's DPL discussion revolve around),
//   * counts per spatial class (isolated / sparse / dense) echoing the
//     temporal-spatial classification of the original work.
#pragma once

#include <cstddef>
#include <vector>

#include "netbase/ipv6.hpp"
#include "netbase/prefix.hpp"

namespace beholder6::analysis {

/// One aggregate at a fixed resolution: a prefix and the number of input
/// addresses it covers.
struct Aggregate {
  Prefix prefix;
  std::size_t count = 0;

  friend bool operator==(const Aggregate&, const Aggregate&) = default;
};

/// Multi-resolution aggregation over a fixed address set.
class MraAnalysis {
 public:
  /// Build from any address collection. Duplicates count once.
  explicit MraAnalysis(std::vector<Ipv6Addr> addrs);

  /// All aggregates at a resolution (prefix length 0..128), in address
  /// order. O(n) over the sorted input.
  [[nodiscard]] std::vector<Aggregate> aggregates(unsigned plen) const;

  /// Number of distinct aggregates at a resolution (the "aggregate count
  /// curve": how it grows with plen characterizes clustering).
  [[nodiscard]] std::size_t aggregate_count(unsigned plen) const;

  /// The `n` most populated aggregates at a resolution, ties broken by
  /// address order.
  [[nodiscard]] std::vector<Aggregate> densest(unsigned plen, std::size_t n) const;

  /// Addresses per spatial class at a resolution (default /64, the
  /// Internet's subnet unit): an address is isolated when alone in its
  /// aggregate, sparse when it shares it with 1..14 others, and dense in
  /// an aggregate of 16 or more.
  struct ClassCounts {
    std::size_t isolated = 0;
    std::size_t sparse = 0;
    std::size_t dense = 0;
  };
  [[nodiscard]] ClassCounts class_counts(unsigned plen = 64) const;

 private:
  std::vector<Ipv6Addr> addrs_;  // sorted, unique
};

}  // namespace beholder6::analysis
