// Tests for the wire header codecs: round-trip, checksum install/verify,
// malformed-input rejection.
#include "wire/headers.hpp"

#include <gtest/gtest.h>

#include "netbase/checksum.hpp"
#include "support/literals.hpp"
#include "support/wire_oracles.hpp"

namespace beholder6::wire {
namespace {

TEST(Ipv6HeaderCodec, RoundTrip) {
  Ipv6Header h;
  h.traffic_class = 0xc0;
  h.flow_label = 0xabcde;
  h.payload_length = 20;
  h.next_header = 58;
  h.hop_limit = 7;
  h.src = test_support::addr("2001:db8::1");
  h.dst = test_support::addr("2001:db8::2");

  std::vector<std::uint8_t> buf;
  h.encode(buf);
  ASSERT_EQ(buf.size(), Ipv6Header::kSize);

  const auto d = Ipv6Header::decode(buf);
  ASSERT_TRUE(d);
  EXPECT_EQ(d->traffic_class, 0xc0);
  EXPECT_EQ(d->flow_label, 0xabcdeu);
  EXPECT_EQ(d->payload_length, 20);
  EXPECT_EQ(d->next_header, 58);
  EXPECT_EQ(d->hop_limit, 7);
  EXPECT_EQ(d->src, h.src);
  EXPECT_EQ(d->dst, h.dst);
}

TEST(Ipv6HeaderCodec, VersionFieldIsSix) {
  Ipv6Header h;
  std::vector<std::uint8_t> buf;
  h.encode(buf);
  EXPECT_EQ(buf[0] >> 4, 6);
}

TEST(Ipv6HeaderCodec, RejectsTruncatedAndWrongVersion) {
  std::vector<std::uint8_t> buf(Ipv6Header::kSize, 0);
  buf[0] = 0x60;
  EXPECT_TRUE(Ipv6Header::decode(buf));
  buf[0] = 0x40;  // version 4
  EXPECT_FALSE(Ipv6Header::decode(buf));
  buf[0] = 0x60;
  buf.resize(39);
  EXPECT_FALSE(Ipv6Header::decode(buf));
}

TEST(Icmp6HeaderCodec, RoundTrip) {
  Icmp6Header h;
  h.type = Icmp6Type::kTimeExceeded;
  h.code = 0;
  h.checksum = 0x1234;
  h.id = 0xdead;
  h.seq = 80;
  std::vector<std::uint8_t> buf;
  h.encode(buf);
  ASSERT_EQ(buf.size(), Icmp6Header::kSize);
  const auto d = Icmp6Header::decode(buf);
  ASSERT_TRUE(d);
  EXPECT_EQ(d->type, Icmp6Type::kTimeExceeded);
  EXPECT_EQ(d->checksum, 0x1234);
  EXPECT_EQ(d->id, 0xdead);
  EXPECT_EQ(d->seq, 80);
}

TEST(UdpHeaderCodec, RoundTrip) {
  UdpHeader h;
  h.src_port = 53211;
  h.dst_port = 80;
  h.length = 20;
  h.checksum = 0xbeef;
  std::vector<std::uint8_t> buf;
  h.encode(buf);
  ASSERT_EQ(buf.size(), UdpHeader::kSize);
  const auto d = test_support::decode_udp(buf);
  ASSERT_TRUE(d);
  EXPECT_EQ(d->src_port, 53211);
  EXPECT_EQ(d->dst_port, 80);
  EXPECT_EQ(d->length, 20);
  EXPECT_EQ(d->checksum, 0xbeef);
}

TEST(TcpHeaderCodec, RoundTrip) {
  TcpHeader h;
  h.src_port = 4242;
  h.dst_port = 80;
  h.seq = 0xdeadbeef;
  h.ack = 0xcafef00d;
  h.flags = TcpHeader::kSyn;
  h.window = 1024;
  h.checksum = 0x55aa;
  std::vector<std::uint8_t> buf;
  h.encode(buf);
  ASSERT_EQ(buf.size(), TcpHeader::kSize);
  const auto d = test_support::decode_tcp(buf);
  ASSERT_TRUE(d);
  EXPECT_EQ(d->src_port, 4242);
  EXPECT_EQ(d->seq, 0xdeadbeefu);
  EXPECT_EQ(d->ack, 0xcafef00du);
  EXPECT_EQ(d->flags, TcpHeader::kSyn);
  EXPECT_EQ(d->window, 1024);
}

TEST(TransportChecksum, InstallAndVerifyIcmp6) {
  Ipv6Header ip;
  ip.next_header = static_cast<std::uint8_t>(Proto::kIcmp6);
  ip.hop_limit = 64;
  ip.src = test_support::addr("2001:db8::1");
  ip.dst = test_support::addr("2001:db8::2");
  Icmp6Header icmp;
  icmp.type = Icmp6Type::kEchoRequest;
  icmp.id = 1;
  icmp.seq = 2;
  std::vector<std::uint8_t> pkt;
  ip.payload_length = Icmp6Header::kSize;
  ip.encode(pkt);
  icmp.encode(pkt);
  ASSERT_TRUE(finalize_transport_checksum(pkt));
  EXPECT_TRUE(test_support::verify_transport_checksum(pkt));
  pkt.back() ^= 0xff;  // corrupt
  EXPECT_FALSE(test_support::verify_transport_checksum(pkt));
}

TEST(TransportChecksum, CoversAllThreeProtocols) {
  for (auto proto : {Proto::kIcmp6, Proto::kUdp, Proto::kTcp}) {
    Ipv6Header ip;
    ip.next_header = static_cast<std::uint8_t>(proto);
    ip.src = test_support::addr("fd00::1");
    ip.dst = test_support::addr("fd00::2");
    std::vector<std::uint8_t> pkt;
    std::size_t tsize = proto == Proto::kTcp   ? TcpHeader::kSize
                        : proto == Proto::kUdp ? UdpHeader::kSize
                                               : Icmp6Header::kSize;
    ip.payload_length = static_cast<std::uint16_t>(tsize);
    ip.encode(pkt);
    pkt.resize(Ipv6Header::kSize + tsize, 0);
    ASSERT_TRUE(finalize_transport_checksum(pkt));
    EXPECT_TRUE(test_support::verify_transport_checksum(pkt))
        << "proto " << static_cast<int>(proto);
  }
}

TEST(TransportChecksum, RejectsUnknownProtocol) {
  Ipv6Header ip;
  ip.next_header = 99;
  std::vector<std::uint8_t> pkt;
  ip.encode(pkt);
  pkt.resize(60, 0);
  EXPECT_FALSE(finalize_transport_checksum(pkt));
  EXPECT_FALSE(test_support::verify_transport_checksum(pkt));
}

}  // namespace
}  // namespace beholder6::wire
