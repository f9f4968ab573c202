// Tests for the deterministic RNG.
#include "netbase/rng.hpp"

#include <gtest/gtest.h>

#include <set>

namespace beholder6 {
namespace {

TEST(Rng, DeterministicFromSeed) {
  Rng a{12345}, b{12345};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a{1}, b{2};
  int same = 0;
  for (int i = 0; i < 100; ++i) same += a() == b();
  EXPECT_LT(same, 3);
}

TEST(Rng, BelowIsInRange) {
  Rng r{7};
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, BelowCoversRange) {
  Rng r{7};
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(r.below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, UniformInUnitInterval) {
  Rng r{99};
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, ChanceMatchesProbability) {
  Rng r{31337};
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += r.chance(0.25);
  EXPECT_NEAR(hits / 10000.0, 0.25, 0.02);
}

}  // namespace
}  // namespace beholder6
