#include "wire/probe.hpp"

#include "netbase/checksum.hpp"
#include "wire/buffer.hpp"

namespace beholder6::wire {

namespace {

constexpr std::size_t kYarrpPayloadSize = 12;

/// One's-complement 16-bit sum of the payload words other than the fudge:
/// magic (2 words), instance|ttl (1 word), elapsed (2 words).
std::uint16_t payload_partial_sum(std::uint32_t magic, std::uint8_t instance,
                                  std::uint8_t ttl, std::uint32_t elapsed_us) {
  ChecksumAccumulator acc;
  acc.add_u32(magic);
  acc.add_u16(static_cast<std::uint16_t>(instance << 8 | ttl));
  acc.add_u32(elapsed_us);
  return acc.folded_sum();
}

void encode_yarrp_payload(std::vector<std::uint8_t>& out, const ProbeSpec& s) {
  auto* p = append(out, kYarrpPayloadSize);
  store_be32(p, kYarrpMagic);
  p[4] = s.instance;
  p[5] = s.ttl;
  store_be32(p + 6, s.elapsed_us);
  store_be16(p + 10, payload_fudge(kYarrpMagic, s.instance, s.ttl, s.elapsed_us));
}

/// Flow label derived from the target only (via its checksum): constant
/// across the probes of one trace so flow-label-keyed balancers keep the
/// path stable.
std::uint32_t flow_label_for(std::uint16_t target_cksum) {
  return (static_cast<std::uint32_t>(target_cksum) * 2654435761u) & 0xfffff;
}

/// The probe's transport checksum, summed from its fields, not re-read
/// from the encoded packet. The payload adds nothing: payload_fudge makes
/// its words sum to 0xffff, the one's-complement zero, and the rest of the
/// sum is never zero (it holds kProbePort). What remains is the
/// pseudo-header and the transport header's nonzero words.
std::uint16_t probe_checksum(const ProbeSpec& s, std::uint16_t tcksum,
                             std::size_t transport_size) {
  ChecksumAccumulator acc;
  acc.add(s.src.bytes());
  acc.add(s.target.bytes());
  acc.add_u32(static_cast<std::uint32_t>(transport_size));
  acc.add_u16(static_cast<std::uint8_t>(s.proto));
  acc.add_u16(tcksum);      // echo id or source port
  acc.add_u16(kProbePort);  // echo seq or destination port
  switch (s.proto) {
    case Proto::kIcmp6:  // type and code
      acc.add_u16(static_cast<std::uint16_t>(Icmp6Type::kEchoRequest) << 8);
      break;
    case Proto::kUdp:  // length
      acc.add_u16(UdpHeader::kSize + kYarrpPayloadSize);
      break;
    case Proto::kTcp:  // data offset and flags; the 0xffff window adds nothing
      acc.add_u16(static_cast<std::uint16_t>(5u << 12 | s.tcp_flags));
      break;
  }
  return acc.finish();
}

/// A yarrp6 probe parsed from the front of a packet, and the target
/// checksum its ICMPv6 id or source port carries.
struct ParsedProbe {
  ProbeSpec spec;
  std::uint16_t carried;
};

/// The one probe parser: decode_probe returns its spec, and decode_reply
/// runs it once over an error's quotation. One length check per protocol,
/// then fixed-offset loads; it accepts exactly what decoding the IPv6,
/// transport and payload fields one by one accepts (wire/fuzz_test.cpp
/// pins that).
std::optional<ParsedProbe> parse_probe(std::span<const std::uint8_t> packet) {
  if (packet.size() < Ipv6Header::kSize || (packet[0] >> 4) != 6) return std::nullopt;
  const auto* t = packet.data() + Ipv6Header::kSize;
  const std::size_t transport = packet.size() - Ipv6Header::kSize;
  ParsedProbe out{};
  ProbeSpec& s = out.spec;
  s.proto = static_cast<Proto>(packet[6]);
  std::size_t header = 0;
  switch (s.proto) {
    case Proto::kIcmp6: header = Icmp6Header::kSize; break;
    case Proto::kUdp: header = UdpHeader::kSize; break;
    case Proto::kTcp: header = TcpHeader::kSize; break;
    default: return std::nullopt;
  }
  if (transport < header + kYarrpPayloadSize) return std::nullopt;
  if (s.proto == Proto::kIcmp6) {
    if (static_cast<Icmp6Type>(t[0]) != Icmp6Type::kEchoRequest) return std::nullopt;
    out.carried = load_be16(t + 4);  // echo id
  } else {
    out.carried = load_be16(t);  // source port
  }
  if (s.proto == Proto::kTcp) {
    if ((t[12] >> 4) < 5) return std::nullopt;  // data offset
    s.tcp_flags = t[13];
  }
  const auto* y = t + header;
  if (load_be32(y) != kYarrpMagic) return std::nullopt;
  s.src = load_addr(packet.data() + 8);
  s.target = load_addr(packet.data() + 24);
  s.instance = y[4];
  // On the outbound wire the header hop limit equals the payload TTL; after
  // forwarding the header field is decremented while the payload keeps the
  // originating value — which is exactly the state yarrp6 relies on. Always
  // report the payload's originating TTL.
  s.ttl = y[5];
  s.elapsed_us = load_be32(y + 6);
  return out;
}

}  // namespace

std::uint16_t payload_fudge(std::uint32_t magic, std::uint8_t instance,
                            std::uint8_t ttl, std::uint32_t elapsed_us) {
  // Choose fudge so partial_sum + fudge ≡ 0xffff (mod one's complement),
  // i.e. the payload contributes the constant 0xffff to any enclosing sum.
  return static_cast<std::uint16_t>(0xffff - payload_partial_sum(magic, instance, ttl, elapsed_us));
}

void encode_probe_into(const ProbeSpec& spec, std::vector<std::uint8_t>& pkt) {
  pkt.clear();
  pkt.reserve(Ipv6Header::kSize + TcpHeader::kSize + kYarrpPayloadSize);

  std::size_t transport_size = kYarrpPayloadSize;
  switch (spec.proto) {
    case Proto::kIcmp6: transport_size += Icmp6Header::kSize; break;
    case Proto::kUdp: transport_size += UdpHeader::kSize; break;
    case Proto::kTcp: transport_size += TcpHeader::kSize; break;
  }

  const std::uint16_t tcksum = target_checksum(spec.target);
  const std::uint16_t cksum = probe_checksum(spec, tcksum, transport_size);
  Ipv6Header ip;
  ip.flow_label = flow_label_for(tcksum);
  ip.payload_length = static_cast<std::uint16_t>(transport_size);
  ip.next_header = static_cast<std::uint8_t>(spec.proto);
  ip.hop_limit = spec.ttl;
  ip.src = spec.src;
  ip.dst = spec.target;
  ip.encode(pkt);

  switch (spec.proto) {
    case Proto::kIcmp6: {
      Icmp6Header h;
      h.type = Icmp6Type::kEchoRequest;
      h.code = 0;
      h.id = tcksum;
      h.seq = kProbePort;
      h.checksum = cksum;
      h.encode(pkt);
      break;
    }
    case Proto::kUdp: {
      UdpHeader h;
      h.src_port = tcksum;
      h.dst_port = kProbePort;
      h.length = static_cast<std::uint16_t>(UdpHeader::kSize + kYarrpPayloadSize);
      h.checksum = cksum;
      h.encode(pkt);
      break;
    }
    case Proto::kTcp: {
      TcpHeader h;
      h.src_port = tcksum;
      h.dst_port = kProbePort;
      h.flags = spec.tcp_flags;
      h.checksum = cksum;
      h.encode(pkt);
      break;
    }
  }
  encode_yarrp_payload(pkt, spec);
}

std::vector<std::uint8_t> encode_probe(const ProbeSpec& spec) {
  std::vector<std::uint8_t> pkt;
  encode_probe_into(spec, pkt);
  return pkt;
}

std::optional<ProbeSpec> decode_probe(std::span<const std::uint8_t> packet) {
  const auto parsed = parse_probe(packet);
  if (!parsed) return std::nullopt;
  return parsed->spec;
}

std::optional<DecodedReply> decode_reply(std::span<const std::uint8_t> packet,
                                         std::uint32_t now_elapsed_us) {
  constexpr std::size_t kBody = Ipv6Header::kSize + Icmp6Header::kSize;
  if (packet.size() < kBody || (packet[0] >> 4) != 6 ||
      static_cast<Proto>(packet[6]) != Proto::kIcmp6)
    return std::nullopt;
  const auto* icmp = packet.data() + Ipv6Header::kSize;
  const auto body = packet.subspan(kBody);
  DecodedReply reply;
  reply.responder = load_addr(packet.data() + 8);
  reply.type = static_cast<Icmp6Type>(icmp[0]);
  std::uint16_t carried = 0;
  switch (reply.type) {
    case Icmp6Type::kEchoReply: {
      // An echo reply from the target itself: no quotation, but the reply
      // data echoes our 12B state block verbatim (RFC 4443 §4.2), so the
      // stateless recovery works the same way. The responder *is* the
      // target, and the echoed id carries the checksum of the address we
      // targeted; if it no longer matches, the reply came from elsewhere.
      if (body.size() < 10 || load_be32(body.data()) != kYarrpMagic) return std::nullopt;
      reply.probe.target = reply.responder;
      reply.probe.proto = Proto::kIcmp6;
      reply.probe.instance = body[4];
      reply.probe.ttl = body[5];
      reply.probe.elapsed_us = load_be32(body.data() + 6);
      carried = load_be16(icmp + 4);
      break;
    }
    case Icmp6Type::kDestUnreachable:
    case Icmp6Type::kPacketTooBig:
    case Icmp6Type::kTimeExceeded: {
      // The quotation begins after the 8-byte ICMPv6 error header.
      const auto quoted = parse_probe(body);
      if (!quoted) return std::nullopt;
      reply.code = icmp[1];
      reply.probe.target = quoted->spec.target;
      reply.probe.proto = quoted->spec.proto;
      reply.probe.ttl = quoted->spec.ttl;
      reply.probe.elapsed_us = quoted->spec.elapsed_us;
      reply.probe.instance = quoted->spec.instance;
      carried = quoted->carried;
      break;
    }
    default:
      return std::nullopt;
  }
  reply.rtt_us = now_elapsed_us - reply.probe.elapsed_us;
  reply.probe.target_checksum_ok = carried == target_checksum(reply.probe.target);
  return reply;
}

}  // namespace beholder6::wire
