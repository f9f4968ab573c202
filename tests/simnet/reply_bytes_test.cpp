// Pins the bytes the simulated network puts on the wire. The paper goldens
// and benchmark digests see only decoded replies, so a wrong checksum or a
// misplaced reply byte would pass them; these tests verify every reply's
// transport checksum and pin a digest of every reply byte over a fixed
// sweep. They also pin the ECMP flow variant against the byte-wise FNV-1a
// flow hash it stands for.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <vector>

#include "netbase/rng.hpp"
#include "simnet/network.hpp"
#include "support/big_echo.hpp"
#include "support/wire_oracles.hpp"
#include "wire/fragment.hpp"
#include "wire/probe.hpp"

namespace beholder6::simnet {
namespace {

using wire::Proto;

/// 64-bit FNV-1a over a byte stream.
struct Fnv1a {
  std::uint64_t h = 1469598103934665603ULL;
  void add(std::uint8_t b) {
    h ^= b;
    h *= 1099511628211ULL;
  }
  void add(std::span<const std::uint8_t> bytes) {
    for (auto b : bytes) add(b);
  }
};

class ReplyBytesTest : public ::testing::Test {
 protected:
  ReplyBytesTest() : topo_(TopologyParams{}), net_(topo_, unlimited()) {}

  static NetworkParams unlimited() {
    NetworkParams p;
    p.unlimited = true;
    return p;
  }

  /// Per AS: its first two /64s, each probed at the ::1 gateway, an
  /// address no host holds and up to two live hosts, plus a nonexistent
  /// subnet; and one unrouted address.
  std::vector<Ipv6Addr> targets() const {
    std::vector<Ipv6Addr> out;
    for (const auto& as : topo_.ases()) {
      for (const auto& s : topo_.enumerate_subnets(as, 2)) {
        out.push_back(Ipv6Addr::from_halves(s.base().hi(), 1));
        out.push_back(Ipv6Addr::from_halves(s.base().hi(), 0x4242424242424242ULL));
        const auto hosts = topo_.hosts_in(as, s);
        for (std::size_t h = 0; h < std::min<std::size_t>(2, hosts.size()); ++h)
          out.push_back(hosts[h].addr);
      }
      out.push_back(Ipv6Addr::from_halves(
          as.prefixes[0].base().hi() | (0xfeULL << 24), 1));
    }
    out.push_back(Ipv6Addr::from_halves(0x2a10deadULL << 32, 7));
    return out;
  }

  void record(std::span<const Packet> replies) {
    for (const auto& r : replies) {
      ++replies_;
      digest_.add(static_cast<std::uint8_t>(r.size() >> 8));
      digest_.add(static_cast<std::uint8_t>(r.size()));
      digest_.add(r);
      if (wire::fragment_of(r)) {
        ++fragments_;
        continue;
      }
      EXPECT_TRUE(test_support::verify_transport_checksum(r)) << "reply " << replies_;
    }
  }

  Topology topo_;
  Network net_;
  Fnv1a digest_;
  std::size_t replies_ = 0;
  std::size_t fragments_ = 0;
};

TEST_F(ReplyBytesTest, SweepRepliesVerifyAndArePinned) {
  const auto all = targets();
  std::uint32_t elapsed = 0;
  for (std::size_t v = 0; v < 2; ++v) {
    for (const auto& t : all) {
      for (const auto proto : {Proto::kIcmp6, Proto::kUdp, Proto::kTcp}) {
        for (std::uint8_t ttl = 1; ttl <= 20; ++ttl) {
          wire::ProbeSpec s;
          s.src = topo_.vantages()[v].src;
          s.target = t;
          s.proto = proto;
          s.ttl = ttl;
          s.elapsed_us = elapsed += 37;
          s.instance = static_cast<std::uint8_t>(v + 1);
          s.tcp_flags = ttl % 2 ? wire::TcpHeader::kSyn : wire::TcpHeader::kAck;
          record(net_.inject_view(wire::encode_probe(s)));
          net_.advance_us(37);
        }
      }
    }
  }

  // Echoes to every learned interface, in address order.
  std::vector<Ipv6Addr> ifaces;
  for (const auto& [addr, router] : net_.learned_interfaces()) ifaces.push_back(addr);
  std::sort(ifaces.begin(), ifaces.end());
  ASSERT_GT(ifaces.size(), 50u);
  for (const auto& iface : ifaces) {
    wire::ProbeSpec s;
    s.src = topo_.vantages()[0].src;
    s.target = iface;
    s.ttl = 64;
    s.elapsed_us = elapsed += 37;
    record(net_.inject_view(wire::encode_probe(s)));
  }
  record(net_.inject_view(test_support::make_big_echo(topo_.vantages()[1].src,
                                                      ifaces.front())));

  // The sweep reaches every kind of reply the network builds.
  const auto& st = net_.stats();
  EXPECT_GT(st.time_exceeded, 1000u);
  EXPECT_GT(st.echo_replies, ifaces.size());
  for (const auto code : {wire::UnreachCode::kNoRoute, wire::UnreachCode::kAdminProhibited,
                          wire::UnreachCode::kAddressUnreachable,
                          wire::UnreachCode::kPortUnreachable})
    EXPECT_GT(st.dest_unreach[static_cast<unsigned>(code)], 0u)
        << "DU code " << static_cast<unsigned>(code);
  EXPECT_GT(fragments_, 1u);

  // Pinned on the byte-at-a-time codecs the fixed-offset ones replaced.
  EXPECT_EQ(replies_, 59184u);
  EXPECT_EQ(digest_.h, 0x7e3408d45e3ad399ULL);
}

/// The ECMP key Network hashed before the variant shortcut: byte-wise
/// FNV-1a over addresses, flow label, next header and the leading
/// transport bytes (8 for ICMPv6, the ports otherwise).
std::uint64_t reference_flow_hash(std::span<const std::uint8_t> pkt) {
  Fnv1a f;
  f.add(pkt.subspan(8, 32));
  const std::uint32_t label = (pkt[1] & 0x0fu) << 16 | pkt[2] << 8 | pkt[3];
  f.add(static_cast<std::uint8_t>(label >> 16));
  f.add(static_cast<std::uint8_t>(label >> 8));
  f.add(static_cast<std::uint8_t>(label));
  f.add(pkt[6]);
  const auto transport = pkt.subspan(wire::Ipv6Header::kSize);
  const std::size_t n = pkt[6] == static_cast<std::uint8_t>(Proto::kIcmp6) ? 8 : 4;
  f.add(transport.first(std::min(n, transport.size())));
  return f.h;
}

TEST(FlowVariant, EqualsByteWiseFnv1aModuloThePeriod) {
  const Topology topo{TopologyParams{}};
  Rng rng{0xf10bULL};
  auto snapshot = std::make_shared<RouteCache>();
  std::vector<Packet> probes;
  std::array<std::size_t, 2> seen{};
  for (int i = 0; i < 3000; ++i) {
    // Random header and transport bytes; lengths 0..47 include transports
    // shorter than the 4 or 8 bytes the hash reads.
    Packet pkt(wire::Ipv6Header::kSize + rng.below(48));
    for (auto& b : pkt) b = static_cast<std::uint8_t>(rng());
    pkt[0] = static_cast<std::uint8_t>(0x60 | (pkt[0] & 0x0f));
    const auto payload = pkt.size() - wire::Ipv6Header::kSize;
    pkt[4] = static_cast<std::uint8_t>(payload >> 8);
    pkt[5] = static_cast<std::uint8_t>(payload);
    constexpr std::array<Proto, 3> kProtos{Proto::kIcmp6, Proto::kUdp, Proto::kTcp};
    pkt[6] = static_cast<std::uint8_t>(kProtos[rng.below(3)]);
    const auto& src = topo.vantages()[rng.below(topo.vantages().size())].src.bytes();
    std::copy(src.begin(), src.end(), pkt.begin() + 8);

    const auto key = Network::probe_route_key(topo, pkt);
    ASSERT_TRUE(key.has_value());
    const auto want = reference_flow_hash(pkt) % kEcmpVariantPeriod;
    ASSERT_EQ(key->flow_variant, want) << "probe " << i;
    ++seen[want];
    if (!snapshot->find(key->key))
      (void)snapshot->insert(key->key,
                             topo.path(topo.vantages()[key->vantage_index], key->dst,
                                       key->flow_variant, key->next_header));
    probes.push_back(std::move(pkt));
  }
  EXPECT_GT(seen[0], 1000u);
  EXPECT_GT(seen[1], 1000u);

  // resolve_path keys on the same variant: with the private cache off,
  // every probe resolves from the snapshot built from probe_route_key.
  NetworkParams p;
  p.unlimited = true;
  p.route_cache_entries = 0;
  Network net{topo, p};
  net.set_shared_routes(std::move(snapshot));
  for (const auto& pkt : probes) (void)net.inject_view(pkt);
  EXPECT_EQ(net.stats().route_cache_hits, probes.size());
}

}  // namespace
}  // namespace beholder6::simnet
