// Tests for the Internet checksum.
#include "netbase/checksum.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "support/literals.hpp"

namespace beholder6 {
namespace {

TEST(InternetChecksum, Rfc1071WorkedExample) {
  // Classic example from RFC 1071 §3: 00 01 f2 03 f4 f5 f6 f7.
  const std::uint8_t data[] = {0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7};
  // Sum = 0001 + f203 + f4f5 + f6f7 = 2ddf0 -> fold 2 + ddf0 = ddf2;
  // checksum = ~ddf2 = 220d.
  EXPECT_EQ(internet_checksum(data), 0x220d);
}

TEST(InternetChecksum, OddLengthPadsWithZero) {
  const std::uint8_t data[] = {0x01, 0x02, 0x03};
  // Words: 0102, 0300 -> sum 0402 -> ~ = fbfd.
  EXPECT_EQ(internet_checksum(data), 0xfbfd);
}

TEST(InternetChecksum, ZeroResultReportedAsFFFF) {
  // All 0xff words sum/fold to 0xffff; complement is 0, reported as 0xffff.
  const std::uint8_t data[] = {0xff, 0xff};
  EXPECT_EQ(internet_checksum(data), 0xffff);
}

TEST(InternetChecksum, ChunkingInvariance) {
  const std::vector<std::uint8_t> data = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  ChecksumAccumulator whole, split;
  whole.add(data);
  split.add(std::span(data).subspan(0, 4));
  split.add(std::span(data).subspan(4));
  EXPECT_EQ(whole.finish(), split.finish());
}

TEST(TargetChecksum, DetectsRewriting) {
  // The yarrp6 use case: checksum stored at send time over the target;
  // a middlebox rewriting the destination is detectable.
  const auto t1 = test_support::addr("2001:db8::1");
  const auto t2 = test_support::addr("2001:db8::2");
  EXPECT_NE(target_checksum(t1), target_checksum(t2));
  EXPECT_EQ(target_checksum(t1), target_checksum(t1));
}

}  // namespace
}  // namespace beholder6
