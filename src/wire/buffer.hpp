// wire/buffer.hpp — fixed-offset big-endian loads and stores for the wire
// codecs. Every header has a fixed layout, so the codecs size the buffer
// once and store each field at its offset instead of appending byte by
// byte; decoders check the length once, then load at fixed offsets.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <vector>

#include "netbase/ipv6.hpp"

namespace beholder6::wire {

/// Grow `out` by `n` bytes and return where they start.
inline std::uint8_t* append(std::vector<std::uint8_t>& out, std::size_t n) {
  const auto at = out.size();
  out.resize(at + n);
  return out.data() + at;
}

inline void store_be16(std::uint8_t* p, std::uint16_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 8);
  p[1] = static_cast<std::uint8_t>(v);
}
inline void store_be32(std::uint8_t* p, std::uint32_t v) {
  store_be16(p, static_cast<std::uint16_t>(v >> 16));
  store_be16(p + 2, static_cast<std::uint16_t>(v));
}
inline void store_addr(std::uint8_t* p, const Ipv6Addr& a) {
  std::memcpy(p, a.bytes().data(), 16);
}

inline std::uint16_t load_be16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] << 8 | p[1]);
}
inline std::uint32_t load_be32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(load_be16(p)) << 16 | load_be16(p + 2);
}
inline Ipv6Addr load_addr(const std::uint8_t* p) {
  std::array<std::uint8_t, 16> b;
  std::memcpy(b.data(), p, b.size());
  return Ipv6Addr{b};
}

}  // namespace beholder6::wire
