// Robustness fuzzing for the parsers that read untrusted input:
// Ipv6Addr::parse, io::from_text_line (which calls the
// first on every trace line it reads), and the two whole-trace readers,
// io::read_text and io::read_binary (both framings). Deterministic
// mutational fuzz over fixed Rng seeds, like tests/wire/fuzz_test.cpp:
// valid seed inputs are mutated by flips, inserts, deletes, duplications
// and truncations, and every result must
//   * parse without crashing (the asan-ubsan leg runs this binary),
//   * be accepted exactly when an independent oracle calls it valid — so
//     a mutated invalid input is never accepted — and
//   * round-trip when accepted: printing and re-parsing gives the same
//     value, and a re-encoded trace reproduces the bytes it was read from.
// The address oracle is the C library's inet_pton(AF_INET6), minus the
// dotted-quad IPv4 tails Ipv6Addr::parse rejects by design.
#include <arpa/inet.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cctype>
#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "io/trace_io.hpp"
#include "netbase/ipv6.hpp"
#include "netbase/rng.hpp"
#include "support/counted_binary.hpp"

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

/// The oracle's reading of a whole text trace, split into lines as
/// std::getline does: blank and '#' lines skipped, every other line one
/// record or one malformed count.
TextReadResult oracle_text(std::string_view text) {
  TextReadResult out;
  while (!text.empty()) {
    const auto end = std::min(text.find('\n'), text.size());
    const auto line = text.substr(0, end);
    text.remove_prefix(std::min(end + 1, text.size()));
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string_view::npos || line[first] == '#') continue;
    if (const auto rec = oracle_line(line))
      out.records.push_back(*rec);
    else
      ++out.malformed;
  }
  return out;
}

/// The number of records read_binary must return for `bytes`, or nullopt:
/// a "B6TR" version-1 header, then at least `count` 40-byte records, or,
/// under the open-ended kBinaryStreamCount framing, whole records to EOF.
std::optional<std::size_t> oracle_binary_count(std::string_view bytes) {
  constexpr std::size_t kHeader = 12;
  constexpr std::size_t kRecord = 40;
  if (bytes.size() < kHeader) return std::nullopt;
  auto u32 = [&](std::size_t at) {
    std::uint32_t v = 0;
    for (std::size_t i = 0; i < 4; ++i)
      v = (v << 8) | static_cast<std::uint8_t>(bytes[at + i]);
    return v;
  };
  if (u32(0) != kBinaryMagic || u32(4) != kBinaryVersion) return std::nullopt;
  const auto whole = (bytes.size() - kHeader) / kRecord;
  if (u32(8) == kBinaryStreamCount) {
    if (whole * kRecord != bytes.size() - kHeader) return std::nullopt;
    return whole;
  }
  if (whole < u32(8)) return std::nullopt;
  return u32(8);
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

TraceRecord random_record(Rng& rng) {
  TraceRecord rec;
  rec.target = *Ipv6Addr::parse(addr_seeds()[rng.below(addr_seeds().size())]);
  rec.responder =
      *Ipv6Addr::parse(addr_seeds()[rng.below(addr_seeds().size())]);
  rec.ttl = static_cast<std::uint8_t>(rng.below(256));
  rec.type = static_cast<std::uint8_t>(rng.below(256));
  rec.code = static_cast<std::uint8_t>(rng.below(256));
  rec.instance = static_cast<std::uint8_t>(rng.below(256));
  rec.rtt_us = static_cast<std::uint32_t>(rng());
  return rec;
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

TEST_P(TextParseFuzz, TraceLineParseMatchesOracleAndRoundTrips) {
  Rng rng{GetParam()};
  std::size_t accepted = 0;
  for (int round = 0; round < kRounds; ++round) {
    const auto text = mutate(to_text_line(random_record(rng)), rng);
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

TEST_P(TextParseFuzz, ReadTextMatchesOracleAndReencodes) {
  Rng rng{GetParam()};
  std::size_t records = 0;
  std::size_t malformed = 0;
  for (int round = 0; round < kRounds; ++round) {
    std::ostringstream out;
    TextWriter writer{out};
    for (auto n = rng.below(5); n > 0; --n) {
      writer.write(random_record(rng));
      if (rng.below(4) == 0) out << "\n  # note\n";
    }
    const auto text = mutate(out.str(), rng);
    std::istringstream in{text};
    const auto got = read_text(in);
    const auto want = oracle_text(text);
    ASSERT_EQ(got.records, want.records) << '"' << text << '"';
    ASSERT_EQ(got.malformed, want.malformed) << '"' << text << '"';
    records += got.records.size();
    malformed += got.malformed;

    std::ostringstream again;
    TextWriter rewriter{again};
    for (const auto& rec : got.records) rewriter.write(rec);
    std::istringstream reread{again.str()};
    const auto back = read_text(reread);
    EXPECT_EQ(back.records, got.records);
    EXPECT_EQ(back.malformed, 0u);
  }
  EXPECT_GT(records, 0u);
  EXPECT_GT(malformed, 0u);
}

TEST_P(TextParseFuzz, ReadBinaryMatchesFramingOracleAndReencodes) {
  Rng rng{GetParam()};
  std::size_t accepted = 0;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<TraceRecord> records(rng.below(5));
    for (auto& rec : records) rec = random_record(rng);
    std::ostringstream out;
    out << test_support::counted_binary(records);
    std::string bytes = out.str();
    // Header count: honest, the open-ended sentinel, or hostile.
    auto count = static_cast<std::uint32_t>(records.size());
    if (const auto pick = rng.below(4); pick == 0)
      count = kBinaryStreamCount;
    else if (pick == 1)
      count = static_cast<std::uint32_t>(rng());
    for (std::size_t i = 0; i < 4; ++i)
      bytes[8 + i] = static_cast<char>(count >> (24 - 8 * i));
    bytes = mutate(std::move(bytes), rng);

    std::istringstream in{bytes};
    const auto got = read_binary(in);
    const auto want = oracle_binary_count(bytes);
    ASSERT_EQ(got.has_value(), want.has_value()) << "round " << round;
    if (!got) continue;
    ++accepted;
    ASSERT_EQ(got->size(), *want) << "round " << round;
    std::ostringstream again;
    again << test_support::counted_binary(*got);
    EXPECT_EQ(again.str().substr(0, 8), bytes.substr(0, 8));
    EXPECT_EQ(again.str().substr(12), bytes.substr(12, 40 * got->size()))
        << "round " << round;
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_LT(accepted, static_cast<std::size_t>(kRounds));
}

INSTANTIATE_TEST_SUITE_P(Streams, TextParseFuzz,
                         ::testing::Values(11, 22, 33, 44));

}  // namespace
}  // namespace beholder6::io
