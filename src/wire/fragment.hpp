// wire/fragment.hpp — IPv6 Fragment extension header (RFC 8200 §4.5).
//
// Needed by the speedtrap-style alias-resolution extension: large ICMPv6
// echo replies from routers are fragmented, and each fragment carries the
// router's 32-bit Identification counter. Interfaces whose identification
// sequences interleave monotonically share one counter — one router.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "wire/headers.hpp"

namespace beholder6::wire {

inline constexpr std::uint8_t kFragmentNextHeader = 44;
/// Conservative fragmentation threshold: the IPv6 minimum link MTU.
inline constexpr std::size_t kMinMtu = 1280;

struct FragmentHeader {
  std::uint8_t next_header = 0;
  std::uint16_t offset = 0;  // in 8-octet units
  bool more_fragments = false;
  std::uint32_t identification = 0;

  static constexpr std::size_t kSize = 8;

  void encode(std::vector<std::uint8_t>& out) const;
  static std::optional<FragmentHeader> decode(std::span<const std::uint8_t> data);
};

/// Split an assembled IPv6 packet (40B header + payload) into fragments
/// that fit `mtu`, all tagged with `identification`, encoding each into a
/// buffer obtained from `acquire()` — a cleared std::vector<uint8_t>&
/// whose retained capacity is reused (e.g. a simnet PacketPool slot). A
/// packet that already fits is copied whole into one acquired buffer (no
/// fragment header added). Returns the number of buffers filled; 0 for a
/// malformed packet, in which case nothing is acquired.
///
/// It builds no containers of its own, so a warm caller's reply path
/// stays allocation-free (tools/check_noalloc.py walks through the
/// instantiation).
template <typename AcquireFn>
std::size_t fragment_packet_into(std::span<const std::uint8_t> packet,
                                 std::uint32_t identification,
                                 std::size_t mtu, AcquireFn&& acquire) {
  if (packet.size() <= mtu) {
    acquire().assign(packet.begin(), packet.end());
    return 1;
  }
  const auto ip = Ipv6Header::decode(packet);
  if (!ip) return 0;

  // Fragmentable part: everything after the base header. Per-fragment
  // payload capacity, rounded down to 8-octet units.
  const auto payload = packet.subspan(Ipv6Header::kSize);
  const std::size_t cap =
      ((mtu - Ipv6Header::kSize - FragmentHeader::kSize) / 8) * 8;

  std::size_t pos = 0, count = 0;
  while (pos < payload.size()) {
    const std::size_t n = std::min(cap, payload.size() - pos);
    const bool more = pos + n < payload.size();

    std::vector<std::uint8_t>& frag = acquire();
    frag.clear();
    Ipv6Header fh = *ip;
    fh.next_header = kFragmentNextHeader;
    fh.payload_length = static_cast<std::uint16_t>(FragmentHeader::kSize + n);
    fh.encode(frag);
    FragmentHeader fragment;
    fragment.next_header = ip->next_header;
    fragment.offset = static_cast<std::uint16_t>(pos / 8);
    fragment.more_fragments = more;
    fragment.identification = identification;
    fragment.encode(frag);
    const auto piece = payload.subspan(pos, n);
    frag.insert(frag.end(), piece.begin(), piece.end());
    ++count;
    pos += n;
  }
  return count;
}

/// If the packet carries a fragment header, return it.
[[nodiscard]] std::optional<FragmentHeader> fragment_of(
    std::span<const std::uint8_t> packet);

/// Reassemble fragments (same identification, contiguous) into the original
/// packet. Returns nullopt on gaps or mismatched ids.
[[nodiscard]] std::optional<std::vector<std::uint8_t>> reassemble(
    const std::vector<std::vector<std::uint8_t>>& fragments);

}  // namespace beholder6::wire
