// netbase/checksum.hpp — RFC 1071 Internet checksum, accumulated over the
// ICMPv6 / TCP / UDP pseudo-header by the wire encoders (RFC 8200 §8.1).
//
// Yarrp6 depends on checksums twice: (1) transport checksums must stay
// constant per target so per-flow load balancers see one flow — achieved via
// a 2-byte "fudge" field; (2) a checksum of the target address rides in the
// source port / ICMPv6 id to detect in-path rewriting.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>

#include "netbase/ipv6.hpp"

namespace beholder6 {

/// One's-complement sum folding for the Internet checksum. Accumulate with
/// add(), then finish() yields the complemented 16-bit checksum.
class ChecksumAccumulator {
 public:
  /// Add a byte range; ranges may be added in any 16-bit aligned chunks. A
  /// trailing odd byte is padded with zero, so only the final add() may have
  /// odd length.
  ///
  /// Bulk bytes go in 8 at a time: the one's-complement sum is arithmetic
  /// mod 0xffff, and 2^16 ≡ 1 (mod 0xffff), so folding a big-endian 64-bit
  /// block equals summing its four 16-bit words — this sits on the
  /// per-reply synthesis path, where byte-at-a-time loops show up.
  void add(std::span<const std::uint8_t> data) {
    std::size_t i = 0;
    if (data.size() >= 8) {
      std::uint64_t wide = 0;
      for (; i + 8 <= data.size(); i += 8) {
        std::uint64_t w;
        std::memcpy(&w, data.data() + i, 8);
        if constexpr (std::endian::native == std::endian::little)
          w = __builtin_bswap64(w);
        wide += w;
        if (wide < w) ++wide;  // end-around carry: 2^64 ≡ 1 (mod 0xffff)
      }
      while (wide >> 16) wide = (wide & 0xffff) + (wide >> 16);
      sum_ += static_cast<std::uint32_t>(wide);
    }
    for (; i + 1 < data.size(); i += 2)
      sum_ += static_cast<std::uint32_t>(data[i]) << 8 | data[i + 1];
    if (i < data.size()) sum_ += static_cast<std::uint32_t>(data[i]) << 8;
  }

  void add_u16(std::uint16_t v) { sum_ += v; }
  void add_u32(std::uint32_t v) { sum_ += (v >> 16) + (v & 0xffff); }

  /// Fold carries and complement. 0 is returned as 0xffff per convention.
  [[nodiscard]] std::uint16_t finish() const {
    std::uint32_t s = sum_;
    while (s >> 16) s = (s & 0xffff) + (s >> 16);
    const auto c = static_cast<std::uint16_t>(~s);
    return c == 0 ? 0xffff : c;
  }

  /// Raw (un-complemented) folded sum; used to compute checksum fudge.
  [[nodiscard]] std::uint16_t folded_sum() const {
    std::uint32_t s = sum_;
    while (s >> 16) s = (s & 0xffff) + (s >> 16);
    return static_cast<std::uint16_t>(s);
  }

 private:
  std::uint32_t sum_ = 0;
};

/// Plain RFC 1071 checksum of a byte range.
[[nodiscard]] inline std::uint16_t internet_checksum(std::span<const std::uint8_t> data) {
  ChecksumAccumulator acc;
  acc.add(data);
  return acc.finish();
}

/// The 16-bit target-address checksum yarrp6 stores in the source port /
/// ICMPv6 identifier so replies reveal in-path destination rewriting.
[[nodiscard]] inline std::uint16_t target_checksum(const Ipv6Addr& target) {
  return internet_checksum(target.bytes());
}

}  // namespace beholder6
