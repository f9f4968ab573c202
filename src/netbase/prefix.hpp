// netbase/prefix.hpp — IPv6 prefix (base address + length) value type.
#pragma once

#include <compare>
#include <string>

#include "netbase/ipv6.hpp"

namespace beholder6 {

/// An IPv6 prefix: a base address and a length in [0,128]. The base address
/// is always stored canonically masked (bits past `len` are zero), so two
/// Prefix values compare equal iff they denote the same address block.
class Prefix {
 public:
  constexpr Prefix() : base_{}, len_{0} {}

  Prefix(const Ipv6Addr& base, unsigned len)
      : base_(base.masked(len)), len_(len > 128 ? 128u : len) {}

  [[nodiscard]] const Ipv6Addr& base() const { return base_; }
  [[nodiscard]] unsigned len() const { return len_; }

  /// True iff `a` falls inside this prefix.
  [[nodiscard]] bool contains(const Ipv6Addr& a) const {
    return a.common_prefix_len(base_) >= len_;
  }

  [[nodiscard]] std::string to_string() const {
    return base_.to_string() + "/" + std::to_string(len_);
  }

  friend auto operator<=>(const Prefix&, const Prefix&) = default;

 private:
  Ipv6Addr base_;
  unsigned len_;
};

}  // namespace beholder6
