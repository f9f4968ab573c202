// parse_number.hpp — strict numeric command-line arguments for the example
// and tool drivers: the whole text must parse and lie in range, or the
// program exits 2 naming the flag.
#pragma once

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <string_view>
#include <system_error>

namespace beholder6::cli {

/// Parse all of `text` as a number in [lo, hi], or exit 2 naming `flag`.
template <typename T>
T parse_number(const char* flag, std::string_view text, T lo, T hi) {
  T value{};
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || end != text.data() + text.size() ||
      !(value >= lo && value <= hi)) {
    std::fprintf(stderr, "%s: expected a number in [%g, %g], got '%.*s'\n",
                 flag, static_cast<double>(lo), static_cast<double>(hi),
                 static_cast<int>(text.size()), text.data());
    std::exit(2);
  }
  return value;
}

}  // namespace beholder6::cli
