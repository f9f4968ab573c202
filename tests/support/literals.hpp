// tests/support/literals.hpp — address and prefix literals for tests.
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>

#include "netbase/prefix.hpp"

namespace beholder6::test_support {

/// The address `text` names; throws std::invalid_argument if it names none.
inline Ipv6Addr addr(std::string_view text) {
  if (const auto a = Ipv6Addr::parse(text)) return *a;
  throw std::invalid_argument("bad IPv6 address: " + std::string(text));
}

/// The /`len` prefix around the address `text` names.
inline Prefix prefix(std::string_view text, unsigned len) { return {addr(text), len}; }

}  // namespace beholder6::test_support
