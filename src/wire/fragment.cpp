#include "wire/fragment.hpp"

#include "wire/buffer.hpp"

namespace beholder6::wire {

void FragmentHeader::encode(std::vector<std::uint8_t>& out) const {
  auto* p = append(out, kSize);
  p[0] = next_header;
  p[1] = 0;  // reserved
  store_be16(p + 2, static_cast<std::uint16_t>((offset << 3) | (more_fragments ? 1 : 0)));
  store_be32(p + 4, identification);
}

std::optional<FragmentHeader> FragmentHeader::decode(
    std::span<const std::uint8_t> data) {
  if (data.size() < kSize) return std::nullopt;
  FragmentHeader h;
  h.next_header = data[0];
  const auto off = load_be16(data.data() + 2);
  h.offset = static_cast<std::uint16_t>(off >> 3);
  h.more_fragments = off & 1;
  h.identification = load_be32(data.data() + 4);
  return h;
}

std::optional<FragmentHeader> fragment_of(std::span<const std::uint8_t> packet) {
  const auto ip = Ipv6Header::decode(packet);
  if (!ip || ip->next_header != kFragmentNextHeader) return std::nullopt;
  if (packet.size() < Ipv6Header::kSize + FragmentHeader::kSize) return std::nullopt;
  return FragmentHeader::decode(packet.subspan(Ipv6Header::kSize));
}

}  // namespace beholder6::wire
