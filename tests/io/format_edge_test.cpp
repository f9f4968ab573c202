// Edge-case and property tests for the campaign persistence formats.
#include <gtest/gtest.h>

#include <ios>
#include <sstream>
#include <string>

#include "io/trace_io.hpp"
#include "netbase/rng.hpp"
#include "support/counted_binary.hpp"
#include "support/literals.hpp"

namespace beholder6::io {
namespace {

TraceRecord random_record(Rng& rng) {
  TraceRecord rec;
  rec.target = Ipv6Addr::from_halves(rng(), rng());
  rec.responder = Ipv6Addr::from_halves(rng(), rng());
  rec.ttl = static_cast<std::uint8_t>(rng.below(64) + 1);
  rec.type = rng.chance(0.9) ? 3 : 1;  // TE or DU
  rec.code = static_cast<std::uint8_t>(rng.below(7));
  rec.instance = static_cast<std::uint8_t>(rng.below(256));
  rec.rtt_us = static_cast<std::uint32_t>(rng());
  return rec;
}

class FormatProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FormatProperty, TextRoundTripIsIdentity) {
  Rng rng{GetParam()};
  for (int i = 0; i < 200; ++i) {
    const auto rec = random_record(rng);
    const auto line = to_text_line(rec);
    const auto back = from_text_line(line);
    ASSERT_TRUE(back) << line;
    EXPECT_EQ(*back, rec) << line;
  }
}

TEST_P(FormatProperty, BinaryRoundTripIsIdentityAtAnySize) {
  Rng rng{GetParam()};
  std::vector<TraceRecord> recs;
  const auto n = rng.below(500);
  for (std::uint64_t i = 0; i < n; ++i) recs.push_back(random_record(rng));
  std::stringstream buf;
  buf << test_support::counted_binary(recs);
  const auto back = read_binary(buf);
  ASSERT_TRUE(back);
  EXPECT_EQ(*back, recs);
}

TEST_P(FormatProperty, TextAndBinaryAgree) {
  Rng rng{GetParam()};
  std::vector<TraceRecord> recs;
  for (int i = 0; i < 50; ++i) recs.push_back(random_record(rng));

  std::stringstream text;
  TextWriter w{text};
  for (const auto& r : recs) w.write(r);
  const auto from_text = read_text(text);
  EXPECT_EQ(from_text.malformed, 0u);

  std::stringstream bin;
  bin << test_support::counted_binary(recs);
  const auto from_bin = read_binary(bin);
  ASSERT_TRUE(from_bin);
  EXPECT_EQ(from_text.records, *from_bin);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FormatProperty,
                         ::testing::Values(11, 23, 37, 59, 71));

TEST(TextFormatEdge, ToleratesSurroundingWhitespaceAndBlankLines) {
  std::stringstream in(
      "\n"
      "# header comment\n"
      "   \n"
      "2001:db8::1 3 2001:db8::fe 3 0 1200 7\n"
      "\t\n");
  const auto res = read_text(in);
  EXPECT_EQ(res.malformed, 0u);
  ASSERT_EQ(res.records.size(), 1u);
  EXPECT_EQ(res.records[0].target, test_support::addr("2001:db8::1"));
  EXPECT_EQ(res.records[0].ttl, 3);
  EXPECT_EQ(res.records[0].rtt_us, 1200u);
}

TEST(TextFormatEdge, CountsEachMalformedVariant) {
  std::stringstream in(
      "not-an-address 3 2001:db8::fe 3 0 1200 7\n"   // bad target
      "2001:db8::1 notanum 2001:db8::fe 3 0 1 7\n"   // bad ttl
      "2001:db8::1 3 2001:db8::fe\n"                 // truncated
      "2001:db8::1 3 2001:db8::fe 3 0 1200 7\n");    // good
  const auto res = read_text(in);
  EXPECT_EQ(res.malformed, 3u);
  EXPECT_EQ(res.records.size(), 1u);
}

TEST(TextFormatEdge, WriterCountsAndEmitsHeader) {
  std::stringstream out;
  TextWriter w{out};
  EXPECT_EQ(w.written(), 0u);
  TraceRecord rec;
  rec.target = test_support::addr("::1");
  rec.responder = test_support::addr("::2");
  w.write(rec);
  w.write(rec);
  EXPECT_EQ(w.written(), 2u);
  EXPECT_EQ(out.str().front(), '#') << "stream should start with a comment header";
}

TEST(BinaryFormatEdge, TruncationAtEveryByteNeverCrashesOrMisreads) {
  Rng rng{5};
  std::vector<TraceRecord> recs;
  for (int i = 0; i < 4; ++i) recs.push_back(random_record(rng));
  std::stringstream buf;
  buf << test_support::counted_binary(recs);
  const auto full = buf.str();
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    std::stringstream partial(full.substr(0, cut));
    const auto got = read_binary(partial);
    if (got) {
      // A short read may only succeed if it decodes some prefix of the
      // records exactly; never garbage.
      ASSERT_LE(got->size(), recs.size());
      for (std::size_t i = 0; i < got->size(); ++i) EXPECT_EQ((*got)[i], recs[i]);
    }
  }
}

TEST(BinaryFormatEdge, TrailingGarbageAfterRecordsDetected) {
  Rng rng{6};
  std::vector<TraceRecord> recs{random_record(rng)};
  std::stringstream buf;
  buf << test_support::counted_binary(recs);
  buf << "garbage";
  const auto got = read_binary(buf);
  // Either rejected outright or the declared record count wins; in both
  // cases the decoded records must be exactly what was written.
  if (got) {
    EXPECT_EQ(*got, recs);
  }
}

TEST(BinaryFormatEdge, HostileHeaderCountFailsCleanly) {
  // A bare 12-byte header claiming 0xfffffffe records: the count is
  // unchecked input, never an allocation size. The read must come back
  // empty-handed (truncated), not throw std::bad_alloc.
  const std::string header("B6TR\x00\x00\x00\x01\xff\xff\xff\xfe", 12);
  std::stringstream in(header);
  EXPECT_FALSE(read_binary(in).has_value());
  // The same claim ahead of one real record is still truncation.
  Rng rng{8};
  std::stringstream one;
  one << test_support::counted_binary({random_record(rng)});
  std::string bytes = one.str();
  bytes.replace(8, 4, "\xff\xff\xff\xfe");
  std::stringstream claimed(bytes);
  EXPECT_FALSE(read_binary(claimed).has_value());
}

TEST(StreamingSinkEdge, FailedStreamThrowsInsteadOfDroppingRecords) {
  wire::DecodedReply reply;
  reply.probe.target = test_support::addr("2001:db8::1");
  reply.responder = test_support::addr("2001:db8::fe");
  for (const auto format : {StreamingTraceSink::Format::kText,
                            StreamingTraceSink::Format::kBinary}) {
    std::ostringstream out;
    StreamingTraceSink sink{out, format};
    sink(reply);
    out.setstate(std::ios::badbit);
    EXPECT_THROW(sink(reply), std::ios_base::failure);
    // The header is a write too.
    std::ostringstream dead;
    dead.setstate(std::ios::badbit);
    EXPECT_THROW((StreamingTraceSink{dead, format}), std::ios_base::failure);
  }
}

TEST(BinaryFormatEdge, LargeCampaignRoundTrip) {
  Rng rng{7};
  std::vector<TraceRecord> recs;
  for (int i = 0; i < 20000; ++i) recs.push_back(random_record(rng));
  std::stringstream buf;
  buf << test_support::counted_binary(recs);
  const auto got = read_binary(buf);
  ASSERT_TRUE(got);
  EXPECT_EQ(got->size(), recs.size());
  EXPECT_EQ(*got, recs);
}

TEST(RecordConversion, ReplyRoundTripPreservesDecodedFields) {
  wire::DecodedReply r;
  r.probe.target = test_support::addr("2001:db8::42");
  r.probe.ttl = 9;
  r.probe.instance = 3;
  r.responder = test_support::addr("2001:db8:ff::1");
  r.type = wire::Icmp6Type::kDestUnreachable;
  r.code = 4;
  r.rtt_us = 31337;
  const auto rec = TraceRecord::from_reply(r);
  const auto back = rec.to_reply();
  EXPECT_EQ(back.probe.target, r.probe.target);
  EXPECT_EQ(back.probe.ttl, r.probe.ttl);
  EXPECT_EQ(back.probe.instance, r.probe.instance);
  EXPECT_EQ(back.responder, r.responder);
  EXPECT_EQ(back.type, r.type);
  EXPECT_EQ(back.code, r.code);
  EXPECT_EQ(back.rtt_us, r.rtt_us);
}

}  // namespace
}  // namespace beholder6::io
