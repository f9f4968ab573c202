// Tests for yarrp6 probe encode/decode — the stateless-recovery invariants
// the whole prober depends on.
#include "wire/probe.hpp"

#include <gtest/gtest.h>

#include <array>

#include "netbase/checksum.hpp"
#include "netbase/rng.hpp"
#include "support/literals.hpp"
#include "support/wire_oracles.hpp"

namespace beholder6::wire {
namespace {

ProbeSpec sample_spec(Proto proto, std::uint8_t ttl = 9,
                      std::uint32_t elapsed = 123456) {
  ProbeSpec s;
  s.src = test_support::addr("2001:db8:ffff::100");
  s.target = test_support::addr("2001:db8:1:2:1234:5678:1234:5678");
  s.proto = proto;
  s.ttl = ttl;
  s.elapsed_us = elapsed;
  s.instance = 3;
  return s;
}

/// Build the ICMPv6 error a router would emit: outer IPv6+ICMPv6 quoting the
/// (possibly hop-limit-decremented) probe.
std::vector<std::uint8_t> make_error_reply(const Ipv6Addr& router,
                                           std::vector<std::uint8_t> quoted,
                                           Icmp6Type type, std::uint8_t code) {
  // Simulate forwarding: the quoted packet arrives with hop limit reduced.
  quoted[7] = 1;
  std::vector<std::uint8_t> pkt;
  Ipv6Header ip;
  ip.next_header = static_cast<std::uint8_t>(Proto::kIcmp6);
  ip.hop_limit = 64;
  ip.src = router;
  ip.dst = Ipv6Header::decode(quoted)->src;
  ip.payload_length = static_cast<std::uint16_t>(Icmp6Header::kSize + quoted.size());
  ip.encode(pkt);
  Icmp6Header icmp;
  icmp.type = type;
  icmp.code = code;
  icmp.encode(pkt);
  pkt.insert(pkt.end(), quoted.begin(), quoted.end());
  finalize_transport_checksum(pkt);
  return pkt;
}

class ProbeCodecAllProtocols : public ::testing::TestWithParam<Proto> {};

TEST_P(ProbeCodecAllProtocols, EncodeDecodeRoundTrip) {
  const auto spec = sample_spec(GetParam());
  const auto pkt = encode_probe(spec);
  const auto got = decode_probe(pkt);
  ASSERT_TRUE(got);
  EXPECT_EQ(got->src, spec.src);
  EXPECT_EQ(got->target, spec.target);
  EXPECT_EQ(got->proto, spec.proto);
  EXPECT_EQ(got->ttl, spec.ttl);
  EXPECT_EQ(got->elapsed_us, spec.elapsed_us);
  EXPECT_EQ(got->instance, spec.instance);
}

TEST_P(ProbeCodecAllProtocols, TransportChecksumValid) {
  EXPECT_TRUE(test_support::verify_transport_checksum(encode_probe(sample_spec(GetParam()))));
}

TEST_P(ProbeCodecAllProtocols, ChecksumConstantAcrossTtlAndTime) {
  // The fudge must make the transport checksum a per-target constant even
  // as TTL and timestamp vary — the Paris/load-balancing invariant.
  const auto proto = GetParam();
  const auto base = encode_probe(sample_spec(proto, 1, 0));
  auto checksum_of = [](const std::vector<std::uint8_t>& p) {
    // Transport checksum location differs by protocol; just compare the
    // whole transport header region (excluding payload bytes 12..).
    return std::vector<std::uint8_t>(p.begin(), p.begin() + Ipv6Header::kSize + 8);
  };
  for (std::uint8_t ttl : {2, 9, 16, 31}) {
    for (std::uint32_t t : {1u, 77777u, 4000000000u}) {
      const auto pkt = encode_probe(sample_spec(proto, ttl, t));
      EXPECT_TRUE(test_support::verify_transport_checksum(pkt));
      // Headers (including checksum field inside first 8 transport bytes,
      // except the hop limit byte at offset 7) must match.
      auto a = checksum_of(base), b = checksum_of(pkt);
      a[7] = b[7] = 0;  // hop limit necessarily differs
      EXPECT_EQ(a, b) << "headers must be constant per target";
    }
  }
}

TEST_P(ProbeCodecAllProtocols, ReplyRecoversFullState) {
  const auto spec = sample_spec(GetParam(), 13, 5555);
  const auto reply = make_error_reply(test_support::addr("2001:db8:42::1"),
                                      encode_probe(spec),
                                      Icmp6Type::kTimeExceeded, 0);
  const auto dec = decode_reply(reply, 7777);
  ASSERT_TRUE(dec);
  EXPECT_EQ(dec->responder, test_support::addr("2001:db8:42::1"));
  EXPECT_EQ(dec->type, Icmp6Type::kTimeExceeded);
  EXPECT_EQ(dec->probe.target, spec.target);
  EXPECT_EQ(dec->probe.ttl, 13);  // originating TTL, not the decremented one
  EXPECT_EQ(dec->probe.elapsed_us, 5555u);
  EXPECT_EQ(dec->probe.instance, spec.instance);
  EXPECT_EQ(dec->rtt_us, 7777u - 5555u);
  EXPECT_TRUE(dec->probe.target_checksum_ok);
}

INSTANTIATE_TEST_SUITE_P(Protocols, ProbeCodecAllProtocols,
                         ::testing::Values(Proto::kIcmp6, Proto::kUdp, Proto::kTcp));

TEST(ProbeCodec, DestUnreachableCodesSurvive) {
  const auto spec = sample_spec(Proto::kIcmp6);
  for (std::uint8_t code : {0, 1, 3, 4, 6}) {
    const auto reply = make_error_reply(test_support::addr("2001:db8::fe"),
                                        encode_probe(spec),
                                        Icmp6Type::kDestUnreachable, code);
    const auto dec = decode_reply(reply, 0);
    ASSERT_TRUE(dec);
    EXPECT_EQ(dec->type, Icmp6Type::kDestUnreachable);
    EXPECT_EQ(dec->code, code);
  }
}

TEST(ProbeCodec, WrongMagicRejected) {
  const auto spec = sample_spec(Proto::kIcmp6);
  auto pkt = encode_probe(spec);
  // Corrupt the magic (first payload byte after IPv6 + ICMPv6 headers).
  pkt[Ipv6Header::kSize + Icmp6Header::kSize] ^= 0xff;
  EXPECT_FALSE(decode_probe(pkt));
  const auto reply = make_error_reply(test_support::addr("::1"), pkt,
                                      Icmp6Type::kTimeExceeded, 0);
  EXPECT_FALSE(decode_reply(reply, 0));
}

TEST(ProbeCodec, RewrittenTargetDetected) {
  const auto spec = sample_spec(Proto::kUdp);
  auto pkt = encode_probe(spec);
  // A middlebox rewrites the destination address in flight (byte 24..39).
  pkt[39] ^= 0x5a;
  const auto reply = make_error_reply(test_support::addr("2001:db8::fe"), pkt,
                                      Icmp6Type::kTimeExceeded, 0);
  const auto dec = decode_reply(reply, 0);
  ASSERT_TRUE(dec);
  EXPECT_FALSE(dec->probe.target_checksum_ok);
}

TEST(ProbeCodec, OnlyErrorTypesCarryAQuotation) {
  // Destination Unreachable, Packet Too Big and Time Exceeded quote the
  // probe; any other type in front of the same quotation is not a reply.
  const auto probe = encode_probe(sample_spec(Proto::kUdp));
  const auto from = test_support::addr("2001:db8::fe");
  for (auto t : {Icmp6Type::kDestUnreachable, Icmp6Type::kPacketTooBig,
                 Icmp6Type::kTimeExceeded}) {
    const auto dec = decode_reply(make_error_reply(from, probe, t, 0), 0);
    ASSERT_TRUE(dec);
    EXPECT_EQ(dec->type, t);
  }
  for (auto t : {Icmp6Type::kEchoRequest, static_cast<Icmp6Type>(4),
                 static_cast<Icmp6Type>(0)})
    EXPECT_FALSE(decode_reply(make_error_reply(from, probe, t, 0), 0));
}

TEST(ProbeCodec, NonErrorIcmpRejectedByReplyDecoder) {
  // An echo reply is not an error and carries no quotation.
  std::vector<std::uint8_t> pkt;
  Ipv6Header ip;
  ip.next_header = static_cast<std::uint8_t>(Proto::kIcmp6);
  ip.src = test_support::addr("2001:db8::1");
  ip.dst = test_support::addr("2001:db8::2");
  ip.payload_length = Icmp6Header::kSize;
  ip.encode(pkt);
  Icmp6Header icmp;
  icmp.type = Icmp6Type::kEchoReply;
  icmp.encode(pkt);
  finalize_transport_checksum(pkt);
  EXPECT_FALSE(decode_reply(pkt, 0));
}

TEST(ProbeCodec, TruncatedQuotationRejected) {
  const auto spec = sample_spec(Proto::kIcmp6);
  auto quoted = encode_probe(spec);
  quoted.resize(Ipv6Header::kSize + 4);  // not enough for state recovery
  const auto reply = make_error_reply(test_support::addr("2001:db8::fe"),
                                      quoted, Icmp6Type::kTimeExceeded, 0);
  EXPECT_FALSE(decode_reply(reply, 0));
}

TEST(ProbeCodec, FudgeCancelsPayloadSum) {
  // Property: for arbitrary (ttl, elapsed), the 12B payload folds to 0xffff.
  for (std::uint8_t ttl = 1; ttl < 64; ttl += 7) {
    for (std::uint32_t t : {0u, 1u, 999999u, 0xffffffffu}) {
      ChecksumAccumulator acc;
      acc.add_u32(kYarrpMagic);
      acc.add_u16(static_cast<std::uint16_t>(7 << 8 | ttl));
      acc.add_u32(t);
      acc.add_u16(payload_fudge(kYarrpMagic, 7, ttl, t));
      EXPECT_EQ(acc.folded_sum(), 0xffff);
    }
  }
}

TEST(ProbeCodec, ChecksumFromFieldsMatchesOneOverTheBytes) {
  // encode_probe_into sums the fields, not the packet; re-checksumming the
  // packet's bytes must find nothing to change.
  Rng rng{splitmix64(0xc5)};
  for (int i = 0; i < 3000; ++i) {
    ProbeSpec s;
    s.src = Ipv6Addr::from_halves(rng(), rng());
    s.target = Ipv6Addr::from_halves(rng(), i % 5 == 0 ? 0 : rng());
    s.proto = std::array{Proto::kIcmp6, Proto::kUdp, Proto::kTcp}[i % 3];
    s.ttl = static_cast<std::uint8_t>(rng());
    s.elapsed_us = static_cast<std::uint32_t>(rng());
    s.instance = static_cast<std::uint8_t>(rng());
    s.tcp_flags = i % 2 ? TcpHeader::kSyn : TcpHeader::kAck;
    const auto pkt = encode_probe(s);
    auto refinished = pkt;
    ASSERT_TRUE(finalize_transport_checksum(refinished));
    ASSERT_EQ(pkt, refinished) << "probe " << i;
  }
}

TEST(ProbeCodec, FlowLabelConstantPerTarget) {
  const auto a1 = encode_probe(sample_spec(Proto::kIcmp6, 1, 0));
  const auto a2 = encode_probe(sample_spec(Proto::kIcmp6, 30, 999999));
  // Flow label lives in bytes 1..3 of the IPv6 header.
  EXPECT_TRUE(std::equal(a1.begin(), a1.begin() + 4, a2.begin()));
}

TEST(ProbeCodec, GarbageInputsRejected) {
  std::vector<std::uint8_t> garbage(100, 0xab);
  EXPECT_FALSE(decode_probe(garbage));
  EXPECT_FALSE(decode_reply(garbage, 0));
  EXPECT_FALSE(decode_probe(std::span<const std::uint8_t>{}));
  EXPECT_FALSE(decode_reply(std::span<const std::uint8_t>{}, 0));
}

}  // namespace
}  // namespace beholder6::wire
