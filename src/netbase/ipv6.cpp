#include "netbase/ipv6.hpp"

#include <cctype>
#include <cstdio>
#include <vector>

namespace beholder6 {

namespace {

/// Parse up to 4 hex digits of one group; returns nullopt on bad input.
std::optional<std::uint16_t> parse_group(std::string_view g) {
  if (g.empty() || g.size() > 4) return std::nullopt;
  std::uint16_t v = 0;
  for (char c : g) {
    int d;
    if (c >= '0' && c <= '9') d = c - '0';
    else if (c >= 'a' && c <= 'f') d = c - 'a' + 10;
    else if (c >= 'A' && c <= 'F') d = c - 'A' + 10;
    else return std::nullopt;
    v = static_cast<std::uint16_t>((v << 4) | d);
  }
  return v;
}

}  // namespace

std::optional<Ipv6Addr> Ipv6Addr::parse(std::string_view text) {
  if (text.empty()) return std::nullopt;

  // Split on "::" (at most one occurrence).
  const auto dc = text.find("::");
  std::string_view left = text, right{};
  bool has_dc = dc != std::string_view::npos;
  if (has_dc) {
    left = text.substr(0, dc);
    right = text.substr(dc + 2);
    if (right.find("::") != std::string_view::npos) return std::nullopt;
  }

  auto split_groups = [](std::string_view s) -> std::optional<std::vector<std::uint16_t>> {
    std::vector<std::uint16_t> out;
    if (s.empty()) return out;
    std::size_t start = 0;
    while (true) {
      const auto colon = s.find(':', start);
      const auto piece = s.substr(start, colon == std::string_view::npos
                                             ? std::string_view::npos
                                             : colon - start);
      const auto g = parse_group(piece);
      if (!g) return std::nullopt;
      out.push_back(*g);
      if (colon == std::string_view::npos) break;
      start = colon + 1;
      if (start >= s.size() && colon != std::string_view::npos) return std::nullopt;
    }
    return out;
  };

  const auto lg = split_groups(left);
  const auto rg = split_groups(right);
  if (!lg || !rg) return std::nullopt;

  std::vector<std::uint16_t> groups;
  if (has_dc) {
    const std::size_t fill = 8 - lg->size() - rg->size();
    if (lg->size() + rg->size() > 7) return std::nullopt;  // "::" must cover >=1 group
    groups = *lg;
    groups.insert(groups.end(), fill, 0);
    groups.insert(groups.end(), rg->begin(), rg->end());
  } else {
    if (lg->size() != 8) return std::nullopt;
    groups = *lg;
  }

  std::array<std::uint8_t, 16> b{};
  for (std::size_t i = 0; i < 8; ++i) {
    b[2 * i] = static_cast<std::uint8_t>(groups[i] >> 8);
    b[2 * i + 1] = static_cast<std::uint8_t>(groups[i] & 0xff);
  }
  return Ipv6Addr{b};
}

std::string Ipv6Addr::to_string() const {
  std::array<std::uint16_t, 8> g{};
  for (std::size_t i = 0; i < 8; ++i)
    g[i] = static_cast<std::uint16_t>((bytes_[2 * i] << 8) | bytes_[2 * i + 1]);

  // Find the longest run of zero groups (leftmost on tie, length >= 2).
  int best_start = -1, best_len = 0;
  for (int i = 0; i < 8;) {
    if (g[static_cast<std::size_t>(i)] != 0) { ++i; continue; }
    int j = i;
    while (j < 8 && g[static_cast<std::size_t>(j)] == 0) ++j;
    if (j - i > best_len) { best_start = i; best_len = j - i; }
    i = j;
  }
  if (best_len < 2) best_start = -1;

  std::string out;
  out.reserve(40);
  char buf[8];
  for (int i = 0; i < 8;) {
    if (i == best_start) {
      out += "::";
      i += best_len;
      continue;
    }
    if (!out.empty() && out.back() != ':') out += ':';
    std::snprintf(buf, sizeof buf, "%x", g[static_cast<std::size_t>(i)]);
    out += buf;
    ++i;
  }
  return out;
}

Ipv6Addr Ipv6Addr::masked(unsigned len) const {
  if (len >= 128) return *this;
  auto b = bytes_;
  const unsigned full = len / 8, rem = len % 8;
  if (rem != 0) b[full] &= static_cast<std::uint8_t>(0xff00 >> rem);
  for (unsigned i = full + (rem ? 1 : 0); i < 16; ++i) b[i] = 0;
  return Ipv6Addr{b};
}

Ipv6Addr Ipv6Addr::operator|(const Ipv6Addr& o) const {
  auto b = bytes_;
  for (std::size_t i = 0; i < 16; ++i) b[i] |= o.bytes_[i];
  return Ipv6Addr{b};
}

unsigned Ipv6Addr::common_prefix_len(const Ipv6Addr& o) const {
  unsigned n = 0;
  for (std::size_t i = 0; i < 16; ++i) {
    const std::uint8_t x = static_cast<std::uint8_t>(bytes_[i] ^ o.bytes_[i]);
    if (x == 0) { n += 8; continue; }
    for (int b = 7; b >= 0; --b) {
      if ((x >> b) & 1U) return n;
      ++n;
    }
  }
  return n;
}

}  // namespace beholder6
