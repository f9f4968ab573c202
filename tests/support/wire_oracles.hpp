// tests/support/wire_oracles.hpp — readers the tests check the wire
// encoders with: the UDP and TCP header decoders, the transport checksum
// verifier and fragment reassembly. The library only ever writes these
// (a reply is read by wire::decode_reply), so they live with the tests.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "netbase/checksum.hpp"
#include "wire/buffer.hpp"
#include "wire/fragment.hpp"
#include "wire/headers.hpp"

namespace beholder6::test_support {

inline std::optional<wire::UdpHeader> decode_udp(std::span<const std::uint8_t> data) {
  if (data.size() < wire::UdpHeader::kSize) return std::nullopt;
  const auto* p = data.data();
  wire::UdpHeader h;
  h.src_port = wire::load_be16(p);
  h.dst_port = wire::load_be16(p + 2);
  h.length = wire::load_be16(p + 4);
  h.checksum = wire::load_be16(p + 6);
  return h;
}

inline std::optional<wire::TcpHeader> decode_tcp(std::span<const std::uint8_t> data) {
  if (data.size() < wire::TcpHeader::kSize || (data[12] >> 4) < 5) return std::nullopt;
  const auto* p = data.data();
  wire::TcpHeader h;
  h.src_port = wire::load_be16(p);
  h.dst_port = wire::load_be16(p + 2);
  h.seq = wire::load_be32(p + 4);
  h.ack = wire::load_be32(p + 8);
  h.flags = p[13];
  h.window = wire::load_be16(p + 14);
  h.checksum = wire::load_be16(p + 16);
  return h;
}

/// True iff the assembled packet's ICMPv6, UDP or TCP checksum verifies.
inline bool verify_transport_checksum(std::span<const std::uint8_t> packet) {
  const auto ip = wire::Ipv6Header::decode(packet);
  if (!ip) return false;
  std::size_t off = 0;
  switch (static_cast<wire::Proto>(ip->next_header)) {
    case wire::Proto::kIcmp6: off = 2; break;
    case wire::Proto::kUdp: off = 6; break;
    case wire::Proto::kTcp: off = 16; break;
    default: return false;
  }
  const auto transport = packet.subspan(wire::Ipv6Header::kSize);
  if (transport.size() < off + 2) return false;
  ChecksumAccumulator acc;
  acc.add(ip->src.bytes());
  acc.add(ip->dst.bytes());
  acc.add_u32(static_cast<std::uint32_t>(transport.size()));
  acc.add_u16(ip->next_header);
  acc.add(transport);
  return acc.folded_sum() == 0xffff;
}

/// Reassemble fragments (same identification, contiguous) into the
/// original packet. Returns nullopt on gaps or mismatched ids.
inline std::optional<std::vector<std::uint8_t>> reassemble(
    const std::vector<std::vector<std::uint8_t>>& fragments) {
  if (fragments.empty()) return std::nullopt;
  struct Piece {
    wire::FragmentHeader h;
    std::span<const std::uint8_t> data;
  };
  std::vector<Piece> pieces;
  for (const auto& f : fragments) {
    const auto h = wire::fragment_of(f);
    if (!h) return std::nullopt;
    pieces.push_back(
        {*h, std::span(f).subspan(wire::Ipv6Header::kSize + wire::FragmentHeader::kSize)});
  }
  std::sort(pieces.begin(), pieces.end(),
            [](const Piece& a, const Piece& b) { return a.h.offset < b.h.offset; });
  const auto id = pieces[0].h.identification;
  if (pieces[0].h.offset != 0 || pieces.back().h.more_fragments) return std::nullopt;

  wire::Ipv6Header oh = *wire::Ipv6Header::decode(fragments[0]);
  oh.next_header = pieces[0].h.next_header;
  std::size_t total = 0;
  for (const auto& p : pieces) total += p.data.size();
  oh.payload_length = static_cast<std::uint16_t>(total);
  std::vector<std::uint8_t> whole;
  oh.encode(whole);
  std::size_t expected = 0;
  for (const auto& p : pieces) {
    if (p.h.identification != id) return std::nullopt;
    if (p.h.offset * 8u != expected) return std::nullopt;  // gap or overlap
    whole.insert(whole.end(), p.data.begin(), p.data.end());
    expected += p.data.size();
  }
  return whole;
}

}  // namespace beholder6::test_support
