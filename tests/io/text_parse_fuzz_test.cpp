// Robustness fuzzing for the text parsers that read untrusted input:
// Ipv6Addr::parse, Prefix::parse and io::from_text_line (which calls the
// first on every trace line it reads). Deterministic mutational fuzz over
// fixed Rng seeds, like tests/wire/fuzz_test.cpp: valid seed strings are
// mutated by flips, inserts, deletes, duplications and truncations, and
// every result must
//   * parse without crashing (the asan-ubsan leg runs this binary),
//   * be accepted exactly when an independent oracle calls it valid — so
//     a mutated invalid string is never accepted — and
//   * round-trip when accepted: printing and re-parsing gives the same
//     value.
// The address oracle is the C library's inet_pton(AF_INET6), minus the
// dotted-quad IPv4 tails Ipv6Addr::parse rejects by design.
#include <arpa/inet.h>

#include <gtest/gtest.h>

#include <array>
#include <cctype>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "io/trace_io.hpp"
#include "netbase/ipv6.hpp"
#include "netbase/prefix.hpp"
#include "netbase/rng.hpp"

namespace beholder6::io {
namespace {

constexpr int kRounds = 2000;

/// The oracle's reading of `text` as an IPv6 address, or nullopt.
std::optional<Ipv6Addr> oracle_addr(std::string_view text) {
  const std::string s{text};
  if (s.find('.') != std::string::npos || s.find('\0') != std::string::npos)
    return std::nullopt;
  std::array<std::uint8_t, 16> b{};
  if (inet_pton(AF_INET6, s.c_str(), b.data()) != 1) return std::nullopt;
  return Ipv6Addr{b};
}

/// A decimal field of digits only, at most `max`, or nullopt.
std::optional<std::uint64_t> oracle_decimal(std::string_view text,
                                            std::uint64_t max) {
  if (text.empty()) return std::nullopt;
  std::uint64_t v = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return std::nullopt;
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
    if (v > max) return std::nullopt;
  }
  return v;
}

/// The oracle's reading of `text` as a prefix: "addr" or "addr/len".
std::optional<Prefix> oracle_prefix(std::string_view text) {
  const auto slash = text.find('/');
  const auto addr = oracle_addr(text.substr(0, slash));
  if (!addr) return std::nullopt;
  if (slash == std::string_view::npos) return Prefix{*addr, 128};
  const auto len = oracle_decimal(text.substr(slash + 1), 128);
  if (!len) return std::nullopt;
  return Prefix{*addr, static_cast<unsigned>(*len)};
}

/// The oracle's reading of a trace line: exactly seven whitespace-separated
/// fields — target, ttl, responder, type, code, rtt_us, instance.
std::optional<TraceRecord> oracle_line(std::string_view line) {
  std::vector<std::string_view> fields;
  std::size_t i = 0;
  while (i < line.size()) {
    if (std::isspace(static_cast<unsigned char>(line[i])) != 0) {
      ++i;
      continue;
    }
    const std::size_t start = i;
    while (i < line.size() &&
           std::isspace(static_cast<unsigned char>(line[i])) == 0)
      ++i;
    fields.push_back(line.substr(start, i - start));
  }
  if (fields.size() != 7) return std::nullopt;
  const auto target = oracle_addr(fields[0]);
  const auto ttl = oracle_decimal(fields[1], 255);
  const auto responder = oracle_addr(fields[2]);
  const auto type = oracle_decimal(fields[3], 255);
  const auto code = oracle_decimal(fields[4], 255);
  const auto rtt = oracle_decimal(fields[5], 0xffffffffULL);
  const auto instance = oracle_decimal(fields[6], 255);
  if (!target || !ttl || !responder || !type || !code || !rtt || !instance)
    return std::nullopt;
  TraceRecord rec;
  rec.target = *target;
  rec.responder = *responder;
  rec.ttl = static_cast<std::uint8_t>(*ttl);
  rec.type = static_cast<std::uint8_t>(*type);
  rec.code = static_cast<std::uint8_t>(*code);
  rec.instance = static_cast<std::uint8_t>(*instance);
  rec.rtt_us = static_cast<std::uint32_t>(*rtt);
  return rec;
}

/// One random edit of `s`: characters are drawn mostly from the parsers'
/// own alphabet, so mutants sit near the valid/invalid boundary.
std::string mutate(std::string s, Rng& rng) {
  static constexpr std::string_view kAlphabet =
      "0123456789abcdefABCDEFgxz:::://..  \t+-%\r";
  auto pick = [&]() -> char {
    if (rng.below(8) == 0) return static_cast<char>(rng.below(256));
    return kAlphabet[rng.below(kAlphabet.size())];
  };
  const auto edits = 1 + rng.below(3);
  for (std::uint64_t e = 0; e < edits; ++e) {
    const std::size_t at = s.empty() ? 0 : rng.below(s.size() + 1);
    switch (rng.below(5)) {
      case 0:  // replace
        if (at < s.size()) s[at] = pick();
        break;
      case 1:  // insert
        s.insert(s.begin() + static_cast<std::ptrdiff_t>(at), pick());
        break;
      case 2:  // delete
        if (at < s.size()) s.erase(at, 1);
        break;
      case 3: {  // duplicate a substring in place
        const std::size_t len = rng.below(6);
        s.insert(at, s.substr(at, len));
        break;
      }
      default:  // truncate
        s.resize(at);
        break;
    }
  }
  return s;
}

const std::vector<std::string>& addr_seeds() {
  static const std::vector<std::string> seeds = {
      "2001:db8::1",
      "::",
      "::1",
      "fe80::21a:2bff:fe3c:4d5e",
      "2001:db8:0:0:1:0:0:1",
      "2001:DB8:85A3:0:0:8A2E:370:7334",
      "1:2:3:4:5:6:7::",
      "::2:3:4:5:6:7:8",
      "ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff",
      "2a00:1450:4001:82b::200e",
  };
  return seeds;
}

class TextParseFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TextParseFuzz, AddressParseMatchesOracleAndRoundTrips) {
  Rng rng{GetParam()};
  std::size_t accepted = 0;
  for (int round = 0; round < kRounds; ++round) {
    const auto& seed = addr_seeds()[rng.below(addr_seeds().size())];
    const auto text = mutate(seed, rng);
    const auto got = Ipv6Addr::parse(text);
    const auto want = oracle_addr(text);
    ASSERT_EQ(got.has_value(), want.has_value()) << '"' << text << '"';
    if (!got) continue;
    ++accepted;
    EXPECT_EQ(*got, *want) << '"' << text << '"';
    const auto again = Ipv6Addr::parse(got->to_string());
    ASSERT_TRUE(again.has_value()) << got->to_string();
    EXPECT_EQ(*again, *got) << '"' << text << '"';
  }
  // The mutants straddle the boundary: some survive, most do not.
  EXPECT_GT(accepted, 0u);
  EXPECT_LT(accepted, static_cast<std::size_t>(kRounds));
}

TEST_P(TextParseFuzz, PrefixParseMatchesOracleAndRoundTrips) {
  Rng rng{GetParam()};
  std::size_t accepted = 0;
  for (int round = 0; round < kRounds; ++round) {
    std::string seed = addr_seeds()[rng.below(addr_seeds().size())];
    if (rng.below(4) != 0) {
      seed += '/';
      seed += std::to_string(rng.below(129));
    }
    const auto text = mutate(seed, rng);
    const auto got = Prefix::parse(text);
    const auto want = oracle_prefix(text);
    ASSERT_EQ(got.has_value(), want.has_value()) << '"' << text << '"';
    if (!got) continue;
    ++accepted;
    EXPECT_EQ(*got, *want) << '"' << text << '"';
    const auto again = Prefix::parse(got->to_string());
    ASSERT_TRUE(again.has_value()) << got->to_string();
    EXPECT_EQ(*again, *got) << '"' << text << '"';
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_LT(accepted, static_cast<std::size_t>(kRounds));
}

TEST_P(TextParseFuzz, TraceLineParseMatchesOracleAndRoundTrips) {
  Rng rng{GetParam()};
  std::size_t accepted = 0;
  for (int round = 0; round < kRounds; ++round) {
    TraceRecord seed;
    seed.target = *Ipv6Addr::parse(addr_seeds()[rng.below(addr_seeds().size())]);
    seed.responder =
        *Ipv6Addr::parse(addr_seeds()[rng.below(addr_seeds().size())]);
    seed.ttl = static_cast<std::uint8_t>(rng.below(256));
    seed.type = static_cast<std::uint8_t>(rng.below(256));
    seed.code = static_cast<std::uint8_t>(rng.below(256));
    seed.instance = static_cast<std::uint8_t>(rng.below(256));
    seed.rtt_us = static_cast<std::uint32_t>(rng());
    const auto text = mutate(to_text_line(seed), rng);
    const auto got = from_text_line(text);
    const auto want = oracle_line(text);
    ASSERT_EQ(got.has_value(), want.has_value()) << '"' << text << '"';
    if (!got) continue;
    ++accepted;
    EXPECT_EQ(*got, *want) << '"' << text << '"';
    const auto again = from_text_line(to_text_line(*got));
    ASSERT_TRUE(again.has_value()) << to_text_line(*got);
    EXPECT_EQ(*again, *got) << '"' << text << '"';
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_LT(accepted, static_cast<std::size_t>(kRounds));
}

INSTANTIATE_TEST_SUITE_P(Streams, TextParseFuzz,
                         ::testing::Values(11, 22, 33, 44));

}  // namespace
}  // namespace beholder6::io
