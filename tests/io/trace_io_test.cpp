// Tests for trace serialization: text and binary round-trips, tolerance to
// malformed input, and replay into a collector.
#include "io/trace_io.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "support/counted_binary.hpp"
#include "topology/collector.hpp"

namespace beholder6::io {
namespace {

TraceRecord sample(unsigned i) {
  TraceRecord rec;
  rec.target = Ipv6Addr::from_halves(0x20010db800010000ULL + i, 0x1234567812345678ULL);
  rec.responder = Ipv6Addr::from_halves(0x20010db8ff000000ULL, i + 1);
  rec.ttl = static_cast<std::uint8_t>(1 + i % 16);
  rec.type = i % 3 == 0 ? 3 : 1;
  rec.code = static_cast<std::uint8_t>(i % 7);
  rec.instance = 5;
  rec.rtt_us = 1000 * i;
  return rec;
}

TEST(TextFormat, LineRoundTrip) {
  for (unsigned i = 0; i < 40; ++i) {
    const auto rec = sample(i);
    const auto parsed = from_text_line(to_text_line(rec));
    ASSERT_TRUE(parsed) << to_text_line(rec);
    EXPECT_EQ(*parsed, rec);
  }
}

TEST(TextFormat, RejectsMalformedLines) {
  EXPECT_FALSE(from_text_line(""));
  EXPECT_FALSE(from_text_line("not an address 1 ::1 3 0 0 1"));
  EXPECT_FALSE(from_text_line("2001:db8::1 1 ::1 3 0"));        // short
  EXPECT_FALSE(from_text_line("2001:db8::1 999 ::1 3 0 0 1"));  // ttl range
}

TEST(TextFormat, StreamRoundTripWithHeaderAndJunk) {
  std::ostringstream out;
  TextWriter writer{out};
  std::vector<TraceRecord> records;
  for (unsigned i = 0; i < 25; ++i) {
    records.push_back(sample(i));
    writer.write(records.back());
  }
  EXPECT_EQ(writer.written(), 25u);

  auto text = out.str();
  text += "\n# trailing comment\ngarbage line here\n";
  std::istringstream in{text};
  const auto result = read_text(in);
  EXPECT_EQ(result.records, records);
  EXPECT_EQ(result.malformed, 1u);
}

TEST(BinaryFormat, RoundTrip) {
  std::vector<TraceRecord> records;
  for (unsigned i = 0; i < 100; ++i) records.push_back(sample(i));
  std::stringstream buf;
  buf << test_support::counted_binary(records);
  const auto got = read_binary(buf);
  ASSERT_TRUE(got);
  EXPECT_EQ(*got, records);
}

TEST(BinaryFormat, EmptyCampaign) {
  std::stringstream buf;
  buf << test_support::counted_binary({});
  const auto got = read_binary(buf);
  ASSERT_TRUE(got);
  EXPECT_TRUE(got->empty());
}

TEST(BinaryFormat, RejectsBadMagicVersionTruncation) {
  std::vector<TraceRecord> records{sample(1)};
  std::stringstream buf;
  buf << test_support::counted_binary(records);
  auto bytes = buf.str();

  {
    auto bad = bytes;
    bad[0] = 'X';
    std::istringstream in{bad};
    EXPECT_FALSE(read_binary(in));
  }
  {
    auto bad = bytes;
    bad[7] = 9;  // version
    std::istringstream in{bad};
    EXPECT_FALSE(read_binary(in));
  }
  {
    auto bad = bytes.substr(0, bytes.size() - 5);
    std::istringstream in{bad};
    EXPECT_FALSE(read_binary(in));
  }
}

TEST(Replay, PersistedCampaignFeedsCollector) {
  // Round-trip through the record form must preserve what the collector
  // computes.
  topology::TraceCollector live, replayed;
  std::vector<TraceRecord> store;
  for (unsigned i = 0; i < 60; ++i) {
    const auto rec = sample(i);
    live.on_reply(rec.to_reply());
    store.push_back(TraceRecord::from_reply(rec.to_reply()));
    EXPECT_EQ(store.back(), rec) << "from_reply(to_reply) must be identity";
  }
  std::stringstream buf;
  buf << test_support::counted_binary(store);
  const auto reread = read_binary(buf);
  ASSERT_TRUE(reread.has_value());
  for (const auto& rec : *reread) replayed.on_reply(rec.to_reply());

  EXPECT_EQ(live.traces().size(), replayed.traces().size());
  EXPECT_EQ(live.interfaces().size(), replayed.interfaces().size());
  EXPECT_EQ(live.te_responses(), replayed.te_responses());
  EXPECT_EQ(live.non_te_responses(), replayed.non_te_responses());
}

}  // namespace
}  // namespace beholder6::io
