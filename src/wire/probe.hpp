// wire/probe.hpp — yarrp6 probe construction and reply decoding.
//
// Reproduces the paper's Figure 4. Each probe is an IPv6 packet whose
// transport payload is the 12-byte yarrp6 state block:
//
//   bytes 0-3   magic number (identifies our probes among stray ICMPv6)
//   byte  4     instance id  (distinguishes concurrent yarrp6 runs)
//   byte  5     originating hop limit (the send TTL)
//   bytes 6-9   elapsed send time, microseconds (enables RTT computation)
//   bytes 10-11 checksum fudge (keeps the transport checksum constant
//               per target even as TTL/timestamp vary, so per-flow load
//               balancers treat all probes to one target as one flow)
//
// A 16-bit checksum of the target address rides in the TCP/UDP source port
// or the ICMPv6 identifier, so a reply whose quoted destination was
// rewritten in flight is detectable. All remaining header fields are
// per-target constants. Because ICMPv6 errors quote as much of the
// offending packet as fits (RFC 4443), the full state block comes back in
// every Time Exceeded / Destination Unreachable reply, which is what makes
// yarrp6 stateless.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "netbase/ipv6.hpp"
#include "wire/headers.hpp"

namespace beholder6::wire {

/// Yarrp6 payload magic ("y6bh" — yarrp6/beholder).
inline constexpr std::uint32_t kYarrpMagic = 0x79366268;

/// Destination port targeted by TCP/UDP probes and echoed in the ICMPv6
/// sequence field (the paper uses 80).
inline constexpr std::uint16_t kProbePort = 80;

/// Everything the prober knows when it emits one probe.
struct ProbeSpec {
  Ipv6Addr src;
  Ipv6Addr target;
  Proto proto = Proto::kIcmp6;
  std::uint8_t ttl = 0;           // send hop limit
  std::uint32_t elapsed_us = 0;   // microseconds since campaign start
  std::uint8_t instance = 0;
  std::uint8_t tcp_flags = TcpHeader::kSyn;
};

/// Everything recoverable from a reply's quotation — the reconstructed
/// per-probe state that a stateful prober would have had to remember.
/// The one-byte fields sit together after elapsed_us so the struct has no
/// padding: 24 bytes, which keeps DecodedReply at 48.
struct ProbeState {
  Ipv6Addr target;
  std::uint32_t elapsed_us = 0;
  Proto proto = Proto::kIcmp6;
  std::uint8_t ttl = 0;
  std::uint8_t instance = 0;
  /// False if the quoted destination no longer matches the target checksum
  /// carried in the source port / ICMPv6 id (in-path rewriting).
  bool target_checksum_ok = true;

  friend bool operator==(const ProbeState&, const ProbeState&) = default;
};

/// A decoded reply to a yarrp6 probe.
struct DecodedReply {
  Ipv6Addr responder;         // source address of the ICMPv6 message
  Icmp6Type type = Icmp6Type::kTimeExceeded;
  std::uint8_t code = 0;
  ProbeState probe;           // state recovered from the quotation
  std::uint32_t rtt_us = 0;   // receive elapsed − send elapsed

  friend bool operator==(const DecodedReply&, const DecodedReply&) = default;
};
// The parallel runner's merge record (campaign::ShardReply) is a 16-byte
// key plus this, one 64-byte cache line.
static_assert(sizeof(DecodedReply) == 48);

/// Serialize a probe to wire bytes (IPv6 + transport + 12B yarrp payload),
/// with transport checksum finalized and fudge applied so the checksum is a
/// per-target constant. Writes into `out` (cleared first), so hot loops can
/// reuse one buffer and pay no per-probe allocation.
void encode_probe_into(const ProbeSpec& spec, std::vector<std::uint8_t>& out);

/// Allocating convenience over encode_probe_into.
[[nodiscard]] std::vector<std::uint8_t> encode_probe(const ProbeSpec& spec);

/// Parse a wire-format probe back into its spec (used by tests and by the
/// simulated network to interpret incoming probes). Returns nullopt if the
/// packet is not a well-formed yarrp6 probe.
[[nodiscard]] std::optional<ProbeSpec> decode_probe(std::span<const std::uint8_t> packet);

/// Extract the yarrp6 state block from an ICMPv6 *error* message quoting one
/// of our probes. `now_elapsed_us` is the receive-side clock used for RTT.
/// Returns nullopt if the message is not ICMPv6, not an error quoting a
/// yarrp6 probe, has the wrong magic, or is truncated short of the payload.
[[nodiscard]] std::optional<DecodedReply> decode_reply(
    std::span<const std::uint8_t> packet, std::uint32_t now_elapsed_us);

/// Compute the fudge value that forces the 16-bit one's-complement sum of
/// the 12-byte yarrp payload to 0xffff, cancelling its contribution to the
/// transport checksum regardless of TTL/timestamp. Exposed for tests.
[[nodiscard]] std::uint16_t payload_fudge(std::uint32_t magic, std::uint8_t instance,
                                          std::uint8_t ttl, std::uint32_t elapsed_us);

}  // namespace beholder6::wire
