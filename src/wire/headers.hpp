// wire/headers.hpp — IPv6, ICMPv6, UDP and TCP header codecs.
//
// These are real wire formats (RFC 8200, RFC 4443, RFC 768, RFC 9293): the
// prober serializes probes to bytes and parses replies from bytes, exactly
// as it would against a kernel raw socket; only the transport (simnet vs
// libpcap) differs in this reproduction.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "netbase/ipv6.hpp"

namespace beholder6::wire {

/// IPv6 next-header / protocol numbers used in this work.
enum class Proto : std::uint8_t {
  kTcp = 6,
  kUdp = 17,
  kIcmp6 = 58,
};

/// ICMPv6 message types (RFC 4443).
enum class Icmp6Type : std::uint8_t {
  kDestUnreachable = 1,
  kPacketTooBig = 2,
  kTimeExceeded = 3,
  kEchoRequest = 128,
  kEchoReply = 129,
};

/// ICMPv6 Destination Unreachable codes (RFC 4443 §3.1). The paper's Table 4
/// reports the response mix across exactly these codes.
enum class UnreachCode : std::uint8_t {
  kNoRoute = 0,
  kAdminProhibited = 1,
  kBeyondScope = 2,
  kAddressUnreachable = 3,
  kPortUnreachable = 4,
  kFailedPolicy = 5,
  kRejectRoute = 6,
};

/// Fixed IPv6 header (40 bytes).
struct Ipv6Header {
  std::uint8_t traffic_class = 0;
  std::uint32_t flow_label = 0;  // 20 bits
  std::uint16_t payload_length = 0;
  std::uint8_t next_header = 0;
  std::uint8_t hop_limit = 0;
  Ipv6Addr src;
  Ipv6Addr dst;

  static constexpr std::size_t kSize = 40;

  void encode(std::vector<std::uint8_t>& out) const;
  /// Decode from the front of `data`; nullopt if truncated or not version 6.
  static std::optional<Ipv6Header> decode(std::span<const std::uint8_t> data);
};

/// ICMPv6 header (4 bytes) + rest-of-header (4 bytes, meaning depends on type).
struct Icmp6Header {
  Icmp6Type type = Icmp6Type::kEchoRequest;
  std::uint8_t code = 0;
  std::uint16_t checksum = 0;
  std::uint16_t id = 0;   // echo id / unused for TE & DU
  std::uint16_t seq = 0;  // echo seq / unused for TE & DU

  static constexpr std::size_t kSize = 8;

  void encode(std::vector<std::uint8_t>& out) const;
  static std::optional<Icmp6Header> decode(std::span<const std::uint8_t> data);
};

/// UDP header (8 bytes).
struct UdpHeader {
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint16_t length = 0;
  std::uint16_t checksum = 0;

  static constexpr std::size_t kSize = 8;

  void encode(std::vector<std::uint8_t>& out) const;
};

/// TCP header (20 bytes, no options). Yarrp6 probes are SYN or ACK segments
/// with their state payload carried after the header.
struct TcpHeader {
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint32_t seq = 0;
  std::uint32_t ack = 0;
  std::uint8_t flags = 0;  // SYN=0x02, ACK=0x10
  std::uint16_t window = 65535;
  std::uint16_t checksum = 0;

  static constexpr std::size_t kSize = 20;
  static constexpr std::uint8_t kSyn = 0x02;
  static constexpr std::uint8_t kAck = 0x10;

  void encode(std::vector<std::uint8_t>& out) const;
};

/// Compute and install the transport checksum in a fully-assembled IPv6
/// packet (40B header + transport). Returns false if the packet is malformed.
bool finalize_transport_checksum(std::vector<std::uint8_t>& packet);

}  // namespace beholder6::wire
