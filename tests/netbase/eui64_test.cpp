// Tests for EUI-64 IID construction/extraction.
#include "netbase/eui64.hpp"

#include <gtest/gtest.h>

#include "support/literals.hpp"

namespace beholder6 {
namespace {

TEST(Eui64, BuildsModifiedIidFromMac) {
  // RFC 4291 App. A example style: MAC 00:11:22:33:44:55 ->
  // IID 0211:22ff:fe33:4455 (U/L bit flipped, fffe inserted).
  const Mac mac{{0x00, 0x11, 0x22, 0x33, 0x44, 0x55}};
  EXPECT_EQ(eui64_iid(mac), 0x021122fffe334455ULL);
}

TEST(Eui64, ExtractInvertsBuild) {
  const Mac mac{{0xa4, 0x52, 0x6f, 0x01, 0x02, 0x03}};
  const auto addr = Ipv6Addr::from_halves(0x20010db800010002ULL, eui64_iid(mac));
  ASSERT_TRUE(is_eui64(addr));
  const auto got = eui64_extract(addr);
  ASSERT_TRUE(got);
  EXPECT_EQ(*got, mac);
  EXPECT_EQ(got->oui(), 0xa4526fu);
}

TEST(Eui64, NonEui64Rejected) {
  EXPECT_FALSE(is_eui64(test_support::addr("2001:db8::1")));
  EXPECT_FALSE(eui64_extract(test_support::addr("2001:db8::1")));
  // Random IID that happens not to contain ff:fe at bits 24..39.
  EXPECT_FALSE(is_eui64(Ipv6Addr::from_halves(0, 0xdeadbeef12345678ULL)));
}

TEST(Eui64, FffeMarkerAloneIsTheSignal) {
  const auto addr = Ipv6Addr::from_halves(0, 0x00000000fffe0000ULL >> 8);
  // lo = 0x0000000000fffe00... construct explicitly: marker at bits 24..39.
  const auto a2 = Ipv6Addr::from_halves(0, 0x0000'00ff'fe00'0000ULL);
  EXPECT_TRUE(is_eui64(a2));
  (void)addr;
}

}  // namespace
}  // namespace beholder6
