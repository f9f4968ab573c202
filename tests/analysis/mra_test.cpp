// Tests for Multi-Resolution Aggregate analysis.
#include "analysis/mra.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "netbase/rng.hpp"
#include "support/literals.hpp"

namespace beholder6::analysis {
namespace {

std::vector<Ipv6Addr> cluster(std::uint64_t hi64, std::size_t n,
                              std::uint64_t seed) {
  Rng rng{seed};
  std::vector<Ipv6Addr> out;
  for (std::size_t i = 0; i < n; ++i)
    out.push_back(Ipv6Addr::from_halves(hi64, rng()));
  return out;
}

/// Distinct addresses in `addrs`: what every resolution must partition.
std::size_t distinct(std::vector<Ipv6Addr> addrs) {
  std::sort(addrs.begin(), addrs.end());
  return static_cast<std::size_t>(
      std::unique(addrs.begin(), addrs.end()) - addrs.begin());
}

std::size_t total(const MraAnalysis::ClassCounts& c) {
  return c.isolated + c.sparse + c.dense;
}

TEST(Mra, EmptyInput) {
  const MraAnalysis mra{{}};
  EXPECT_EQ(mra.aggregate_count(128), 0u);
  EXPECT_TRUE(mra.aggregates(48).empty());
  EXPECT_EQ(mra.aggregate_count(48), 0u);
  EXPECT_EQ(total(mra.class_counts()), 0u);
}

TEST(Mra, DeduplicatesInput) {
  const auto a = test_support::addr("2001:db8::1");
  const MraAnalysis mra{{a, a, a}};
  EXPECT_EQ(mra.aggregate_count(128), 1u);
  ASSERT_EQ(mra.aggregates(64).size(), 1u);
  EXPECT_EQ(mra.aggregates(64)[0].count, 1u);
}

TEST(Mra, AggregateCountsAreMonotoneInPrefixLength) {
  auto addrs = cluster(0x20010db800010000ULL, 40, 1);
  const auto more = cluster(0x20010db800020000ULL, 40, 2);
  addrs.insert(addrs.end(), more.begin(), more.end());
  const MraAnalysis mra{addrs};
  std::size_t prev = 0;
  for (unsigned plen = 0; plen <= 128; plen += 8) {
    const auto n = mra.aggregate_count(plen);
    EXPECT_GE(n, prev) << "plen " << plen;
    prev = n;
  }
  EXPECT_EQ(mra.aggregate_count(0), 1u);
  EXPECT_EQ(mra.aggregate_count(128), distinct(addrs));
}

TEST(Mra, AggregatesPartitionTheInput) {
  auto addrs = cluster(0x20010db800010000ULL, 25, 3);
  const auto more = cluster(0x2610009900000000ULL, 17, 4);
  addrs.insert(addrs.end(), more.begin(), more.end());
  const MraAnalysis mra{addrs};
  for (unsigned plen : {16u, 32u, 48u, 64u, 96u}) {
    std::size_t covered = 0;
    const auto aggs = mra.aggregates(plen);
    for (std::size_t i = 0; i < aggs.size(); ++i) {
      covered += aggs[i].count;
      if (i > 0) {
        EXPECT_LT(aggs[i - 1].prefix, aggs[i].prefix);
      }
    }
    EXPECT_EQ(covered, distinct(addrs)) << "plen " << plen;
  }
}

TEST(Mra, TwoSlash64ClustersAt48) {
  auto addrs = cluster(0x20010db800010000ULL, 20, 5);
  const auto more = cluster(0x20010db800010001ULL, 12, 6);  // sibling /64
  addrs.insert(addrs.end(), more.begin(), more.end());
  const MraAnalysis mra{addrs};
  EXPECT_EQ(mra.aggregate_count(48), 1u);
  EXPECT_EQ(mra.aggregate_count(64), 2u);
  const auto aggs = mra.aggregates(64);
  ASSERT_EQ(aggs.size(), 2u);
  EXPECT_EQ(aggs[0].count, 20u);
  EXPECT_EQ(aggs[1].count, 12u);
}

TEST(Mra, DensestOrdersByPopulation) {
  auto addrs = cluster(0x20010db800010000ULL, 30, 7);
  auto b = cluster(0x20010db800020000ULL, 10, 8);
  auto c = cluster(0x20010db800030000ULL, 20, 9);
  addrs.insert(addrs.end(), b.begin(), b.end());
  addrs.insert(addrs.end(), c.begin(), c.end());
  const MraAnalysis mra{addrs};
  const auto top = mra.densest(64, 2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].count, 30u);
  EXPECT_EQ(top[1].count, 20u);
  EXPECT_TRUE(top[0].prefix.contains(Ipv6Addr::from_halves(0x20010db800010000ULL, 1)));
}

TEST(Mra, SpatialClassification) {
  // 1 isolated + 5 sparse + 20 dense in three different /64s.
  std::vector<Ipv6Addr> addrs{test_support::addr("2001:db8:1::1")};
  const auto sparse = cluster(0x20010db800020000ULL, 5, 12);
  const auto dense = cluster(0x20010db800030000ULL, 20, 13);
  addrs.insert(addrs.end(), sparse.begin(), sparse.end());
  addrs.insert(addrs.end(), dense.begin(), dense.end());
  const MraAnalysis mra{addrs};
  const auto counts = mra.class_counts(64);
  EXPECT_EQ(counts.isolated, 1u);
  EXPECT_EQ(counts.sparse, 5u);
  EXPECT_EQ(counts.dense, 20u);
  EXPECT_EQ(total(counts), distinct(addrs));
}

TEST(Mra, ClassCountsConsistentAcrossResolutions) {
  // At plen 0 everything is one aggregate (dense if n >= 16); at 128
  // everything is isolated.
  const auto addrs = cluster(0x20010db800010000ULL, 40, 14);
  const MraAnalysis mra{addrs};
  EXPECT_EQ(mra.class_counts(0).dense, distinct(addrs));
  EXPECT_EQ(mra.class_counts(128).isolated, distinct(addrs));
}

class MraProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MraProperty, InvariantsHoldOnRandomWorkloads) {
  Rng rng{GetParam()};
  std::vector<Ipv6Addr> addrs;
  const auto n_clusters = 1 + rng.below(12);
  for (std::uint64_t c = 0; c < n_clusters; ++c) {
    const auto hi = 0x2001000000000000ULL | (rng() & 0x0000ffffffff0000ULL);
    const auto members = 1 + rng.below(30);
    for (std::uint64_t m = 0; m < members; ++m)
      addrs.push_back(Ipv6Addr::from_halves(hi, rng()));
  }
  const MraAnalysis mra{addrs};
  std::size_t prev = 0;
  for (unsigned plen = 0; plen <= 128; plen += 16) {
    const auto aggs = mra.aggregates(plen);
    EXPECT_EQ(aggs.size(), mra.aggregate_count(plen));
    EXPECT_GE(aggs.size(), prev);
    prev = aggs.size();
    std::size_t covered = 0;
    for (const auto& agg : aggs) {
      covered += agg.count;
      EXPECT_GT(agg.count, 0u);
    }
    EXPECT_EQ(covered, distinct(addrs));
    EXPECT_EQ(total(mra.class_counts(plen)), distinct(addrs));
  }
}

INSTANTIATE_TEST_SUITE_P(Workloads, MraProperty,
                         ::testing::Values(101, 202, 303, 404, 505, 606));

}  // namespace
}  // namespace beholder6::analysis
