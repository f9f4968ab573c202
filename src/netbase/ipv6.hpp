// netbase/ipv6.hpp — IPv6 address value type (RFC 4291 / RFC 5952).
//
// Ipv6Addr is a trivially-copyable 128-bit value with network byte order
// storage. It provides parsing and canonical text formatting (RFC 5952 zero
// compression), bit-level accessors used by the target-generation pipeline
// (prefix masking, bit extraction, common-prefix length), and conversions to
// a pair of host-order 64-bit halves (subnet prefix / interface identifier)
// as the paper's vernacular uses them.
#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace beholder6 {

/// A 128-bit IPv6 address stored in network byte order.
class Ipv6Addr {
 public:
  /// Zero address "::".
  constexpr Ipv6Addr() : bytes_{} {}

  /// Construct from 16 raw bytes in network order.
  constexpr explicit Ipv6Addr(const std::array<std::uint8_t, 16>& b) : bytes_(b) {}

  /// Construct from two host-order 64-bit halves: high = subnet prefix bits,
  /// low = interface identifier (IID) bits.
  static constexpr Ipv6Addr from_halves(std::uint64_t hi, std::uint64_t lo) {
    std::array<std::uint8_t, 16> b{};
    for (int i = 0; i < 8; ++i) {
      b[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(hi >> (56 - 8 * i));
      b[static_cast<std::size_t>(8 + i)] = static_cast<std::uint8_t>(lo >> (56 - 8 * i));
    }
    return Ipv6Addr{b};
  }

  /// Parse presentation format (full, compressed "::", mixed case).
  /// Returns nullopt on malformed input. Does not accept IPv4-mapped dotted
  /// quads (the datasets in this work are pure IPv6).
  static std::optional<Ipv6Addr> parse(std::string_view text);

  /// Canonical RFC 5952 text: lowercase hex, longest zero run compressed
  /// (leftmost on tie, never a single group).
  [[nodiscard]] std::string to_string() const;

  [[nodiscard]] constexpr const std::array<std::uint8_t, 16>& bytes() const { return bytes_; }

  /// High (subnet prefix) half as host-order u64.
  [[nodiscard]] constexpr std::uint64_t hi() const { return half(0); }
  /// Low (interface identifier) half as host-order u64.
  [[nodiscard]] constexpr std::uint64_t lo() const { return half(8); }

  /// The i-th bit counting from the most significant (bit 0 = MSB of byte 0).
  [[nodiscard]] constexpr bool bit(unsigned i) const {
    return (bytes_[i / 8] >> (7 - i % 8)) & 1U;
  }

  /// Copy with the i-th bit (MSB-first indexing) set to `v`.
  [[nodiscard]] constexpr Ipv6Addr with_bit(unsigned i, bool v) const {
    auto b = bytes_;
    const std::uint8_t mask = static_cast<std::uint8_t>(1U << (7 - i % 8));
    if (v) b[i / 8] |= mask; else b[i / 8] &= static_cast<std::uint8_t>(~mask);
    return Ipv6Addr{b};
  }

  /// Address with all bits after the first `len` zeroed (prefix base address).
  [[nodiscard]] Ipv6Addr masked(unsigned len) const;

  /// Bitwise OR; used by target synthesis to install an IID into a prefix.
  [[nodiscard]] Ipv6Addr operator|(const Ipv6Addr& o) const;

  /// Number of leading bits equal between *this and `o` (0..128).
  [[nodiscard]] unsigned common_prefix_len(const Ipv6Addr& o) const;

  /// Nybble (4-bit group) i in [0,32), MSB-first; used by 6Gen-style clustering.
  [[nodiscard]] constexpr std::uint8_t nybble(unsigned i) const {
    const std::uint8_t byte = bytes_[i / 2];
    return (i % 2 == 0) ? static_cast<std::uint8_t>(byte >> 4)
                        : static_cast<std::uint8_t>(byte & 0x0f);
  }

  /// Copy with nybble i replaced by v (low 4 bits of v).
  [[nodiscard]] constexpr Ipv6Addr with_nybble(unsigned i, std::uint8_t v) const {
    auto b = bytes_;
    if (i % 2 == 0) b[i / 2] = static_cast<std::uint8_t>((b[i / 2] & 0x0f) | (v << 4));
    else            b[i / 2] = static_cast<std::uint8_t>((b[i / 2] & 0xf0) | (v & 0x0f));
    return Ipv6Addr{b};
  }

  friend constexpr auto operator<=>(const Ipv6Addr& a, const Ipv6Addr& b) {
    return a.bytes_ <=> b.bytes_;
  }
  friend constexpr bool operator==(const Ipv6Addr& a, const Ipv6Addr& b) = default;

 private:
  [[nodiscard]] constexpr std::uint64_t half(std::size_t off) const {
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < 8; ++i) v = (v << 8) | bytes_[off + i];
    return v;
  }

  std::array<std::uint8_t, 16> bytes_;
};

/// FNV-1a hash over the 16 bytes; suitable for unordered containers.
struct Ipv6AddrHash {
  std::size_t operator()(const Ipv6Addr& a) const noexcept {
    std::uint64_t h = 1469598103934665603ULL;
    for (auto b : a.bytes()) { h ^= b; h *= 1099511628211ULL; }
    return static_cast<std::size_t>(h);
  }
};

}  // namespace beholder6
