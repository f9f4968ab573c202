// Tests for the Feistel cycle-walking permutation: bijectivity, key
// sensitivity, and coverage of awkward domain sizes.
#include "netbase/permutation.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

namespace beholder6 {
namespace {

class PermutationDomains : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PermutationDomains, IsABijection) {
  const std::uint64_t n = GetParam();
  Permutation perm{n, 0xfeedface};
  std::vector<bool> hit(n, false);
  for (std::uint64_t i = 0; i < n; ++i) {
    const auto v = perm.map(i);
    ASSERT_LT(v, n);
    ASSERT_FALSE(hit[v]) << "value " << v << " produced twice";
    hit[v] = true;
  }
}

INSTANTIATE_TEST_SUITE_P(AwkwardSizes, PermutationDomains,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 16, 17, 100, 255,
                                           256, 257, 1000, 4096, 10007));

TEST(Permutation, DifferentKeysDifferentOrders) {
  Permutation a{1000, 1}, b{1000, 2};
  unsigned differing = 0;
  for (std::uint64_t i = 0; i < 1000; ++i) differing += a.map(i) != b.map(i);
  EXPECT_GT(differing, 900u);  // overwhelmingly different
}

TEST(Permutation, SameKeyIsDeterministic) {
  Permutation a{1000, 99}, b{1000, 99};
  for (std::uint64_t i = 0; i < 1000; ++i) EXPECT_EQ(a.map(i), b.map(i));
}

TEST(Permutation, ScattersNeighbors) {
  // Consecutive inputs should not map to consecutive outputs: this is the
  // property that spreads probes across targets and TTLs.
  Permutation p{100000, 7};
  unsigned adjacent = 0;
  std::uint64_t prev = p.map(0);
  for (std::uint64_t i = 1; i < 1000; ++i) {
    const auto v = p.map(i);
    const auto d = v > prev ? v - prev : prev - v;
    adjacent += d == 1;
    prev = v;
  }
  EXPECT_LT(adjacent, 5u);
}

TEST(Permutation, RejectsOutOfRange) {
  Permutation p{10, 0};
  EXPECT_THROW((void)p.map(10), std::out_of_range);
  EXPECT_THROW(Permutation(0, 0), std::invalid_argument);
}

TEST(Permutation, SingletonDomain) {
  Permutation p{1, 123};
  EXPECT_EQ(p.map(0), 0u);
}

TEST(Permutation, LargeDomainProbeSpace) {
  // A realistic probe space: 1M targets x 16 TTLs. Spot-check that
  // distinct indices land on distinct values inside the domain.
  const std::uint64_t n = 16ULL * 1000000ULL;
  Permutation p{n, 0xc0ffee};
  std::vector<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < n; i += 1048573) {
    const auto v = p.map(i);
    ASSERT_LT(v, n);
    seen.push_back(v);
  }
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end());
}

}  // namespace
}  // namespace beholder6
