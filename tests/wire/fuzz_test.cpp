// Robustness fuzzing: the wire decoders must never crash, loop, or read
// out of bounds on mutated/truncated/random inputs — they parse untrusted
// network bytes. (Sanitizer-friendly deterministic fuzz, not coverage-
// guided; the point is absence of UB and of false accepts.)
#include <gtest/gtest.h>

#include "netbase/rng.hpp"
#include "support/literals.hpp"
#include "wire/fragment.hpp"
#include "wire/probe.hpp"

namespace beholder6::wire {
namespace {

class WireFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WireFuzz, DecodersSurviveRandomBytes) {
  Rng rng{GetParam()};
  for (int round = 0; round < 300; ++round) {
    std::vector<std::uint8_t> junk(rng.below(200));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng());
    (void)Ipv6Header::decode(junk);
    (void)Icmp6Header::decode(junk);
    (void)FragmentHeader::decode(junk);
    (void)decode_probe(junk);
    (void)decode_reply(junk, 0);
    (void)fragment_of(junk);
  }
}

TEST_P(WireFuzz, MutatedProbesNeverCrashAndMagicGates) {
  Rng rng{GetParam()};
  ProbeSpec spec;
  spec.src = test_support::addr("2001:db8::1");
  spec.target = test_support::addr("2001:db8:9::42");
  spec.ttl = 7;
  const auto clean = encode_probe(spec);
  for (int round = 0; round < 500; ++round) {
    auto mutated = clean;
    const auto flips = 1 + rng.below(8);
    for (std::uint64_t f = 0; f < flips; ++f)
      mutated[rng.below(mutated.size())] ^= static_cast<std::uint8_t>(1 + rng.below(255));
    const auto dec = decode_probe(mutated);
    if (dec) {
      // If it still decodes, the magic must be intact — so the payload
      // region was not what got mutated, or mutation was elsewhere.
      EXPECT_EQ(dec->proto == Proto::kIcmp6 || dec->proto == Proto::kUdp ||
                    dec->proto == Proto::kTcp,
                true);
    }
  }
}

TEST_P(WireFuzz, TruncationsNeverCrash) {
  Rng rng{GetParam()};
  ProbeSpec spec;
  spec.src = test_support::addr("2001:db8::1");
  spec.target = test_support::addr("2001:db8:9::42");
  const auto probe = encode_probe(spec);
  // A full reply quoting the probe.
  std::vector<std::uint8_t> reply;
  Ipv6Header ip;
  ip.next_header = 58;
  ip.src = test_support::addr("2001:db8:f::1");
  ip.dst = spec.src;
  ip.payload_length = static_cast<std::uint16_t>(Icmp6Header::kSize + probe.size());
  ip.encode(reply);
  Icmp6Header icmp;
  icmp.type = Icmp6Type::kTimeExceeded;
  icmp.encode(reply);
  reply.insert(reply.end(), probe.begin(), probe.end());

  for (std::size_t len = 0; len <= reply.size(); ++len) {
    std::vector<std::uint8_t> cut(reply.begin(),
                                  reply.begin() + static_cast<std::ptrdiff_t>(len));
    const auto dec = decode_reply(cut, 0);
    // Only a quotation long enough to contain the full yarrp block decodes.
    if (dec) {
      EXPECT_GE(len, 40u + 8u + 40u + 8u + 12u);
    }
  }
  (void)rng;
}

INSTANTIATE_TEST_SUITE_P(Streams, WireFuzz, ::testing::Values(11, 22, 33, 44));

/// FNV-1a over every field the reply and probe decoders return, or a
/// marker for nullopt: pins which hostile inputs they accept and what they
/// recover from each, so a rewritten parser must agree byte for byte.
class DecodeDigest {
 public:
  void probe(std::span<const std::uint8_t> pkt) {
    const auto s = decode_probe(pkt);
    u8(s.has_value());
    if (!s) return;
    addr(s->src);
    addr(s->target);
    u8(static_cast<std::uint8_t>(s->proto));
    u8(s->ttl);
    u32(s->elapsed_us);
    u8(s->instance);
    u8(s->tcp_flags);
  }
  void reply(std::span<const std::uint8_t> pkt, std::uint32_t now) {
    const auto r = decode_reply(pkt, now);
    u8(r.has_value());
    if (!r) return;
    addr(r->responder);
    u8(static_cast<std::uint8_t>(r->type));
    u8(r->code);
    addr(r->probe.target);
    u8(static_cast<std::uint8_t>(r->probe.proto));
    u8(r->probe.ttl);
    u32(r->probe.elapsed_us);
    u8(r->probe.instance);
    u8(r->probe.target_checksum_ok);
    u32(r->rtt_us);
    ++accepted;
  }
  void both(std::span<const std::uint8_t> pkt, std::uint32_t now) {
    probe(pkt);
    reply(pkt, now);
  }

  std::uint64_t h = 1469598103934665603ULL;
  std::size_t accepted = 0;

 private:
  void u8(std::uint8_t b) {
    h ^= b;
    h *= 1099511628211ULL;
  }
  void u32(std::uint32_t v) {
    for (int s = 24; s >= 0; s -= 8) u8(static_cast<std::uint8_t>(v >> s));
  }
  void addr(const Ipv6Addr& a) {
    for (auto b : a.bytes()) u8(b);
  }
};

/// An ICMPv6 message from `from` to the probe's source: an error quoting
/// `probe` whole (hop limit run down to zero), or, for kEchoReply, the
/// target's echo of an ICMPv6 probe's id, seq and payload.
std::vector<std::uint8_t> reply_to(const std::vector<std::uint8_t>& probe,
                                   const Ipv6Addr& from, Icmp6Type type,
                                   std::uint8_t code) {
  const bool echo = type == Icmp6Type::kEchoReply;
  const auto body = echo ? std::span(probe).subspan(Ipv6Header::kSize + Icmp6Header::kSize)
                         : std::span(probe);
  std::vector<std::uint8_t> reply;
  Ipv6Header ip;
  ip.next_header = static_cast<std::uint8_t>(Proto::kIcmp6);
  ip.hop_limit = 64;
  ip.src = from;
  ip.dst = Ipv6Header::decode(probe)->src;
  ip.payload_length = static_cast<std::uint16_t>(Icmp6Header::kSize + body.size());
  ip.encode(reply);
  Icmp6Header icmp;
  icmp.type = type;
  icmp.code = code;
  if (echo) {
    icmp.id = static_cast<std::uint16_t>(probe[44] << 8 | probe[45]);
    icmp.seq = static_cast<std::uint16_t>(probe[46] << 8 | probe[47]);
  }
  icmp.encode(reply);
  reply.insert(reply.end(), body.begin(), body.end());
  if (!echo) reply[Ipv6Header::kSize + Icmp6Header::kSize + 7] = 0;
  finalize_transport_checksum(reply);
  return reply;
}

/// Flip 1-3 bytes of `clean`, each by a random nonzero mask.
std::vector<std::uint8_t> mutate(const std::vector<std::uint8_t>& clean, Rng& rng) {
  auto m = clean;
  const auto flips = 1 + rng.below(3);
  for (std::uint64_t f = 0; f < flips; ++f)
    m[rng.below(m.size())] ^= static_cast<std::uint8_t>(1 + rng.below(255));
  return m;
}

TEST(WireDecodeDigest, HostileInputsDecodeToPinnedResults) {
  DecodeDigest d;
  // The seeded random-bytes corpus of DecodersSurviveRandomBytes.
  for (const std::uint64_t seed : {11, 22, 33, 44}) {
    Rng rng{seed};
    for (int round = 0; round < 300; ++round) {
      std::vector<std::uint8_t> junk(rng.below(200));
      for (auto& b : junk) b = static_cast<std::uint8_t>(rng());
      d.both(junk, static_cast<std::uint32_t>(round));
    }
  }

  Rng rng{0xdec0de};
  const auto src = test_support::addr("2001:db8::1");
  const auto target = test_support::addr("2001:db8:9::42");
  const auto router = test_support::addr("2001:db8:f::1");
  for (const auto proto : {Proto::kIcmp6, Proto::kUdp, Proto::kTcp}) {
    ProbeSpec spec;
    spec.src = src;
    spec.target = target;
    spec.proto = proto;
    spec.ttl = 9;
    spec.elapsed_us = 123456;
    spec.instance = 3;
    spec.tcp_flags = TcpHeader::kAck;
    const auto probe = encode_probe(spec);

    // Mutated probes.
    for (int round = 0; round < 2000; ++round)
      d.both(mutate(probe, rng), 200000);

    // Truncated and mutated Time Exceeded, Destination Unreachable and
    // (for ICMPv6 probes) echo replies.
    std::vector<std::vector<std::uint8_t>> replies{
        reply_to(probe, router, Icmp6Type::kTimeExceeded, 0),
        reply_to(probe, router, Icmp6Type::kDestUnreachable, 4)};
    if (proto == Proto::kIcmp6)
      replies.push_back(reply_to(probe, target, Icmp6Type::kEchoReply, 0));
    for (const auto& reply : replies) {
      for (std::size_t len = 0; len <= reply.size(); ++len)
        d.both(std::span(reply).first(len), static_cast<std::uint32_t>(200000 + len));
      for (int round = 0; round < 2000; ++round)
        d.both(mutate(reply, rng), 300000);
    }
  }
  // Pinned on the field-by-field decoders (Reader-based, three decodes per
  // reply) the one-pass parser replaced.
  EXPECT_EQ(d.accepted, 11661u);
  EXPECT_EQ(d.h, 0x7936248887772257ULL);
}


}  // namespace
}  // namespace beholder6::wire
