#include "wire/headers.hpp"

#include "netbase/checksum.hpp"
#include "wire/buffer.hpp"

namespace beholder6::wire {

void Ipv6Header::encode(std::vector<std::uint8_t>& out) const {
  auto* p = append(out, kSize);
  store_be32(p, (6u << 28) | (static_cast<std::uint32_t>(traffic_class) << 20) |
                    (flow_label & 0xfffff));
  store_be16(p + 4, payload_length);
  p[6] = next_header;
  p[7] = hop_limit;
  store_addr(p + 8, src);
  store_addr(p + 24, dst);
}

std::optional<Ipv6Header> Ipv6Header::decode(std::span<const std::uint8_t> data) {
  if (data.size() < kSize || (data[0] >> 4) != 6) return std::nullopt;
  const auto* p = data.data();
  Ipv6Header h;
  const auto vcf = load_be32(p);
  h.traffic_class = static_cast<std::uint8_t>((vcf >> 20) & 0xff);
  h.flow_label = vcf & 0xfffff;
  h.payload_length = load_be16(p + 4);
  h.next_header = p[6];
  h.hop_limit = p[7];
  h.src = load_addr(p + 8);
  h.dst = load_addr(p + 24);
  return h;
}

void Icmp6Header::encode(std::vector<std::uint8_t>& out) const {
  auto* p = append(out, kSize);
  p[0] = static_cast<std::uint8_t>(type);
  p[1] = code;
  store_be16(p + 2, checksum);
  store_be16(p + 4, id);
  store_be16(p + 6, seq);
}

std::optional<Icmp6Header> Icmp6Header::decode(std::span<const std::uint8_t> data) {
  if (data.size() < kSize) return std::nullopt;
  const auto* p = data.data();
  Icmp6Header h;
  h.type = static_cast<Icmp6Type>(p[0]);
  h.code = p[1];
  h.checksum = load_be16(p + 2);
  h.id = load_be16(p + 4);
  h.seq = load_be16(p + 6);
  return h;
}

void UdpHeader::encode(std::vector<std::uint8_t>& out) const {
  auto* p = append(out, kSize);
  store_be16(p, src_port);
  store_be16(p + 2, dst_port);
  store_be16(p + 4, length);
  store_be16(p + 6, checksum);
}

void TcpHeader::encode(std::vector<std::uint8_t>& out) const {
  auto* p = append(out, kSize);  // zeroed: the urgent pointer stays 0
  store_be16(p, src_port);
  store_be16(p + 2, dst_port);
  store_be32(p + 4, seq);
  store_be32(p + 8, ack);
  p[12] = 5u << 4;  // data offset 5 words, no options
  p[13] = flags;
  store_be16(p + 14, window);
  store_be16(p + 16, checksum);
}

namespace {

/// Locate the transport checksum field offset within the transport section.
/// Returns SIZE_MAX for protocols without one we handle.
std::size_t checksum_offset(std::uint8_t next_header) {
  switch (static_cast<Proto>(next_header)) {
    case Proto::kIcmp6: return 2;
    case Proto::kUdp: return 6;
    case Proto::kTcp: return 16;
  }
  return SIZE_MAX;
}

}  // namespace

bool finalize_transport_checksum(std::vector<std::uint8_t>& packet) {
  // Runs once per packet built, so the pseudo-header fields are read in
  // place (src/dst are the contiguous bytes 8..40) instead of decoding the
  // whole header into a value type first.
  if (packet.size() < Ipv6Header::kSize || (packet[0] >> 4) != 6) return false;
  const std::uint8_t next_header = packet[6];
  const auto off = checksum_offset(next_header);
  if (off == SIZE_MAX) return false;
  auto transport = std::span(packet).subspan(Ipv6Header::kSize);
  if (transport.size() < off + 2) return false;
  transport[off] = transport[off + 1] = 0;
  ChecksumAccumulator acc;
  acc.add(std::span(packet).subspan(8, 32));  // src ++ dst
  acc.add_u32(static_cast<std::uint32_t>(transport.size()));
  acc.add_u16(next_header);
  acc.add(transport);
  const auto c = acc.finish();
  transport[off] = static_cast<std::uint8_t>(c >> 8);
  transport[off + 1] = static_cast<std::uint8_t>(c);
  return true;
}

}  // namespace beholder6::wire
