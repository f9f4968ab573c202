// Tests for the IPv6 Fragment header codec and fragmentation/reassembly.
#include "wire/fragment.hpp"

#include <gtest/gtest.h>

#include "support/literals.hpp"
#include "support/wire_oracles.hpp"

namespace beholder6::wire {
namespace {

std::vector<std::uint8_t> make_packet(std::size_t payload) {
  std::vector<std::uint8_t> pkt;
  Ipv6Header ip;
  ip.next_header = static_cast<std::uint8_t>(Proto::kIcmp6);
  ip.hop_limit = 64;
  ip.src = test_support::addr("2001:db8::1");
  ip.dst = test_support::addr("2001:db8::2");
  ip.payload_length = static_cast<std::uint16_t>(payload);
  ip.encode(pkt);
  for (std::size_t i = 0; i < payload; ++i)
    pkt.push_back(static_cast<std::uint8_t>(i));
  return pkt;
}

/// The fragments of `pkt`, each encoded into a fresh buffer.
std::vector<std::vector<std::uint8_t>> fragments(
    const std::vector<std::uint8_t>& pkt, std::uint32_t identification) {
  std::vector<std::vector<std::uint8_t>> out;
  fragment_packet_into(std::span(pkt), identification, kMinMtu,
                       [&]() -> std::vector<std::uint8_t>& {
                         return out.emplace_back();
                       });
  return out;
}

TEST(FragmentHeaderCodec, RoundTrip) {
  FragmentHeader h;
  h.next_header = 58;
  h.offset = 123;
  h.more_fragments = true;
  h.identification = 0xdeadbeef;
  std::vector<std::uint8_t> buf;
  h.encode(buf);
  ASSERT_EQ(buf.size(), FragmentHeader::kSize);
  const auto d = FragmentHeader::decode(buf);
  ASSERT_TRUE(d);
  EXPECT_EQ(d->next_header, 58);
  EXPECT_EQ(d->offset, 123);
  EXPECT_TRUE(d->more_fragments);
  EXPECT_EQ(d->identification, 0xdeadbeefu);
}

TEST(Fragmentation, SmallPacketPassesThrough) {
  const auto pkt = make_packet(100);
  const auto frags = fragments(pkt, 42);
  ASSERT_EQ(frags.size(), 1u);
  EXPECT_EQ(frags[0], pkt);
  EXPECT_FALSE(fragment_of(frags[0]));
}

TEST(Fragmentation, BigPacketSplitsWithSharedId) {
  const auto pkt = make_packet(2000);
  const auto frags = fragments(pkt, 777);
  ASSERT_GE(frags.size(), 2u);
  for (const auto& f : frags) {
    EXPECT_LE(f.size(), kMinMtu);
    const auto h = fragment_of(f);
    ASSERT_TRUE(h);
    EXPECT_EQ(h->identification, 777u);
    EXPECT_EQ(h->next_header, 58);
  }
  // Exactly the last fragment has more_fragments == false.
  for (std::size_t i = 0; i < frags.size(); ++i)
    EXPECT_EQ(fragment_of(frags[i])->more_fragments, i + 1 < frags.size());
  // All non-final fragment payloads are multiples of 8 octets.
  for (std::size_t i = 0; i + 1 < frags.size(); ++i)
    EXPECT_EQ((frags[i].size() - Ipv6Header::kSize - FragmentHeader::kSize) % 8, 0u);
}

TEST(Fragmentation, ReassemblyRestoresOriginal) {
  const auto pkt = make_packet(3000);
  auto frags = fragments(pkt, 9);
  // Shuffle to prove order-independence.
  std::rotate(frags.begin(), frags.begin() + 1, frags.end());
  const auto whole = test_support::reassemble(frags);
  ASSERT_TRUE(whole);
  EXPECT_EQ(*whole, pkt);
}

TEST(Fragmentation, ReassemblyRejectsGapsAndMixedIds) {
  const auto pkt = make_packet(3000);
  auto frags = fragments(pkt, 9);
  ASSERT_GE(frags.size(), 3u);
  {
    auto missing = frags;
    missing.erase(missing.begin() + 1);
    EXPECT_FALSE(test_support::reassemble(missing));
  }
  {
    auto mixed = frags;
    auto other = fragments(pkt, 10);
    mixed[1] = other[1];
    EXPECT_FALSE(test_support::reassemble(mixed));
  }
  EXPECT_FALSE(test_support::reassemble({}));
}

// The simnet reply path encodes fragments into reused pool slots: reused
// buffers must hold exactly the bytes fresh ones get, and a warm buffer
// set must be reused in place (no reallocation on the second pass).
TEST(Fragmentation, ReusedBuffersMatchFreshOnesAndKeepCapacity) {
  // Pool-like acquire: reuse buffers in order, clearing but keeping storage.
  std::vector<std::vector<std::uint8_t>> bufs;
  std::size_t next = 0;
  auto acquire = [&]() -> std::vector<std::uint8_t>& {
    if (next == bufs.size()) bufs.emplace_back();
    auto& b = bufs[next++];
    b.clear();
    return b;
  };

  for (std::size_t payload : {100u, 2000u, 4096u}) {
    const auto pkt = make_packet(payload);
    const auto expect = fragments(pkt, 321);
    next = 0;
    const auto n = fragment_packet_into(std::span(pkt), 321, kMinMtu, acquire);
    ASSERT_EQ(n, expect.size()) << payload;
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_EQ(bufs[i], expect[i]) << payload << " fragment " << i;
  }

  // Warm second pass over the largest packet: every buffer's storage must
  // be reused in place.
  const auto pkt = make_packet(4096);
  next = 0;
  const auto n = fragment_packet_into(std::span(pkt), 321, kMinMtu, acquire);
  std::vector<const std::uint8_t*> before;
  for (std::size_t i = 0; i < n; ++i) before.push_back(bufs[i].data());
  next = 0;
  ASSERT_EQ(fragment_packet_into(std::span(pkt), 321, kMinMtu, acquire), n);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_EQ(bufs[i].data(), before[i]) << "fragment " << i
                                         << " reallocated on a warm pass";
}

TEST(Fragmentation, IntoBuffersRejectsMalformedWithoutAcquiring) {
  std::vector<std::uint8_t> garbage(kMinMtu + 100, 0xab);  // not IPv6
  std::size_t acquired = 0;
  std::vector<std::uint8_t> buf;
  const auto n = fragment_packet_into(
      std::span(garbage), 1, kMinMtu, [&]() -> std::vector<std::uint8_t>& {
        ++acquired;
        return buf;
      });
  EXPECT_EQ(n, 0u);
  EXPECT_EQ(acquired, 0u);
}

TEST(Fragmentation, ParametrizedSizesRoundTrip) {
  for (std::size_t payload : {1241u, 1500u, 2459u, 4096u, 9000u}) {
    const auto pkt = make_packet(payload);
    const auto frags = fragments(pkt, 5);
    const auto whole = test_support::reassemble(frags);
    ASSERT_TRUE(whole) << payload;
    EXPECT_EQ(*whole, pkt) << payload;
  }
}

}  // namespace
}  // namespace beholder6::wire
