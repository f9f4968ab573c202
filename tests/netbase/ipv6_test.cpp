// Tests for Ipv6Addr: parsing, RFC 5952 formatting, bit ops, masking.
#include "netbase/ipv6.hpp"

#include <gtest/gtest.h>

#include <set>

#include "support/literals.hpp"

namespace beholder6 {
namespace {

TEST(Ipv6Parse, FullForm) {
  auto a = Ipv6Addr::parse("2001:0db8:0000:0000:0000:0000:0000:0001");
  ASSERT_TRUE(a);
  EXPECT_EQ(a->to_string(), "2001:db8::1");
}

TEST(Ipv6Parse, CompressedMiddle) {
  auto a = Ipv6Addr::parse("2001:db8::1:0:0:2");
  ASSERT_TRUE(a);
  EXPECT_EQ(a->hi(), 0x20010db800000000ULL);
  EXPECT_EQ(a->lo(), 0x0001000000000002ULL);
}

TEST(Ipv6Parse, AllZeros) {
  auto a = Ipv6Addr::parse("::");
  ASSERT_TRUE(a);
  EXPECT_EQ(*a, Ipv6Addr{});
  EXPECT_EQ(a->to_string(), "::");
}

TEST(Ipv6Parse, LeadingCompression) {
  auto a = Ipv6Addr::parse("::1");
  ASSERT_TRUE(a);
  EXPECT_EQ(a->lo(), 1u);
  EXPECT_EQ(a->hi(), 0u);
}

TEST(Ipv6Parse, TrailingCompression) {
  auto a = Ipv6Addr::parse("2001:db8::");
  ASSERT_TRUE(a);
  EXPECT_EQ(a->hi(), 0x20010db800000000ULL);
  EXPECT_EQ(a->lo(), 0u);
  EXPECT_EQ(a->to_string(), "2001:db8::");
}

TEST(Ipv6Parse, UppercaseAccepted) {
  auto a = Ipv6Addr::parse("2001:DB8::ABCD");
  ASSERT_TRUE(a);
  EXPECT_EQ(a->to_string(), "2001:db8::abcd");
}

TEST(Ipv6Parse, RejectsMalformed) {
  EXPECT_FALSE(Ipv6Addr::parse(""));
  EXPECT_FALSE(Ipv6Addr::parse(":"));
  EXPECT_FALSE(Ipv6Addr::parse("1:2:3:4:5:6:7"));        // too few groups
  EXPECT_FALSE(Ipv6Addr::parse("1:2:3:4:5:6:7:8:9"));    // too many groups
  EXPECT_FALSE(Ipv6Addr::parse("2001:db8::1::2"));       // two "::"
  EXPECT_FALSE(Ipv6Addr::parse("2001:db8::12345"));      // oversize group
  EXPECT_FALSE(Ipv6Addr::parse("2001:dg8::1"));          // bad hex digit
  EXPECT_FALSE(Ipv6Addr::parse("1:2:3:4:5:6:7:8::"));    // :: covering 0 groups
}

TEST(Ipv6Format, Rfc5952LongestRunWins) {
  // Zero runs of length 1 and 3: the length-3 run is compressed.
  EXPECT_EQ(test_support::addr("2001:0:1:0:0:0:2:3").to_string(),
            "2001:0:1::2:3");
}

TEST(Ipv6Format, Rfc5952LeftmostTie) {
  // Two runs of length 2: leftmost compressed.
  EXPECT_EQ(test_support::addr("2001:0:0:1:0:0:2:3").to_string(),
            "2001::1:0:0:2:3");
}

TEST(Ipv6Format, SingleZeroGroupNotCompressed) {
  EXPECT_EQ(test_support::addr("2001:db8:0:1:1:1:1:1").to_string(),
            "2001:db8:0:1:1:1:1:1");
}

TEST(Ipv6Format, RoundTripIsStable) {
  const char* cases[] = {"::", "::1", "2001:db8::", "fe80::1234:5678",
                         "2001:db8:0:1:1:1:1:1", "ff02::2",
                         "2001:db8:a:b:c:d:e:f"};
  for (auto* c : cases) {
    const auto a = test_support::addr(c);
    EXPECT_EQ(test_support::addr(a.to_string()), a) << c;
    EXPECT_EQ(a.to_string(), c) << "canonical form should be stable";
  }
}

TEST(Ipv6Halves, RoundTrip) {
  const auto a = Ipv6Addr::from_halves(0x20010db812345678ULL, 0xdeadbeefcafef00dULL);
  EXPECT_EQ(a.hi(), 0x20010db812345678ULL);
  EXPECT_EQ(a.lo(), 0xdeadbeefcafef00dULL);
  EXPECT_EQ(test_support::addr(a.to_string()), a);
}

TEST(Ipv6Bits, BitAccessMsbFirst) {
  const auto a = Ipv6Addr::from_halves(0x8000000000000000ULL, 1);
  EXPECT_TRUE(a.bit(0));
  EXPECT_FALSE(a.bit(1));
  EXPECT_TRUE(a.bit(127));
  EXPECT_FALSE(a.bit(126));
}

TEST(Ipv6Bits, WithBitSetsAndClears) {
  Ipv6Addr a;
  const auto b = a.with_bit(0, true).with_bit(127, true);
  EXPECT_TRUE(b.bit(0));
  EXPECT_TRUE(b.bit(127));
  EXPECT_EQ(b.with_bit(0, false).with_bit(127, false), a);
}

TEST(Ipv6Mask, MaskZeroesTail) {
  const auto a = test_support::addr("2001:db8:ffff:ffff:ffff:ffff:ffff:ffff");
  EXPECT_EQ(a.masked(32).to_string(), "2001:db8::");
  EXPECT_EQ(a.masked(48).to_string(), "2001:db8:ffff::");
  EXPECT_EQ(a.masked(33).hi(), 0x20010db880000000ULL);
  EXPECT_EQ(a.masked(128), a);
  EXPECT_EQ(a.masked(0), Ipv6Addr{});
}

TEST(Ipv6Or, InstallsIid) {
  const auto pfx = test_support::addr("2001:db8:1:2::");
  const auto iid = Ipv6Addr::from_halves(0, 0x1234567812345678ULL);
  EXPECT_EQ((pfx | iid).to_string(), "2001:db8:1:2:1234:5678:1234:5678");
}

TEST(Ipv6CommonPrefix, Lengths) {
  const auto a = test_support::addr("2001:db8::1");
  EXPECT_EQ(a.common_prefix_len(a), 128u);
  EXPECT_EQ(a.common_prefix_len(test_support::addr("2001:db8::2")), 126u);
  EXPECT_EQ(a.common_prefix_len(test_support::addr("2001:db9::1")), 31u);
  EXPECT_EQ(a.common_prefix_len(test_support::addr("a001:db8::1")), 0u);
}

TEST(Ipv6Nybble, GetAndSet) {
  const auto a = test_support::addr("2001:db8::");
  EXPECT_EQ(a.nybble(0), 0x2);
  EXPECT_EQ(a.nybble(1), 0x0);
  EXPECT_EQ(a.nybble(3), 0x1);
  EXPECT_EQ(a.nybble(4), 0x0);
  EXPECT_EQ(a.nybble(5), 0xd);
  EXPECT_EQ(a.with_nybble(0, 0xf).to_string(), "f001:db8::");
  EXPECT_EQ(a.with_nybble(31, 0x5).to_string(), "2001:db8::5");
}

TEST(Ipv6Order, LexicographicByBytes) {
  std::set<Ipv6Addr> s{test_support::addr("2001:db8::2"),
                       test_support::addr("2001:db8::1"),
                       test_support::addr("::1")};
  auto it = s.begin();
  EXPECT_EQ(it->to_string(), "::1");
  ++it;
  EXPECT_EQ(it->to_string(), "2001:db8::1");
}

TEST(Ipv6Hash, DistinctAddressesDistinctHashes) {
  Ipv6AddrHash h;
  EXPECT_NE(h(test_support::addr("2001:db8::1")),
            h(test_support::addr("2001:db8::2")));
}

}  // namespace
}  // namespace beholder6
