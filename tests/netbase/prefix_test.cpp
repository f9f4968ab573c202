// Tests for Prefix: canonicalization, containment, order.
#include "netbase/prefix.hpp"

#include <gtest/gtest.h>

#include "support/literals.hpp"

namespace beholder6 {
namespace {

TEST(PrefixCanon, BaseIsMasked) {
  // Stray host bits are dropped at construction.
  const Prefix p{test_support::addr("2001:db8:ffff::1"), 32};
  EXPECT_EQ(p.base().to_string(), "2001:db8::");
  EXPECT_EQ(p, test_support::prefix("2001:db8::", 32));
}

TEST(PrefixContains, AddressMembership) {
  const auto p = test_support::prefix("2001:db8::", 32);
  EXPECT_TRUE(p.contains(test_support::addr("2001:db8::1")));
  EXPECT_TRUE(p.contains(test_support::addr("2001:db8:ffff:ffff::")));
  EXPECT_FALSE(p.contains(test_support::addr("2001:db9::1")));
}

TEST(PrefixContains, ZeroLengthContainsEverything) {
  const Prefix all{Ipv6Addr{}, 0};
  EXPECT_TRUE(all.contains(test_support::addr("ffff::1")));
  EXPECT_TRUE(all.contains(test_support::addr("::")));
}

TEST(PrefixOrder, SortsByBaseThenLen) {
  const auto a = test_support::prefix("2001:db8::", 32);
  const auto b = test_support::prefix("2001:db8::", 48);
  const auto c = test_support::prefix("2001:db9::", 32);
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
}

}  // namespace
}  // namespace beholder6
