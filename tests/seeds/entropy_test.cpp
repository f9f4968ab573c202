// Tests for the Entropy/IP-style structure model.
#include "seeds/entropy.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "support/literals.hpp"

namespace beholder6::seeds {
namespace {

/// A structured hitlist: constant /32 prefix, one of 3 values at nybble 8,
// zeros through nybble 15, random IID nybbles 16..31.
std::vector<Ipv6Addr> structured_list(std::size_t n, std::uint64_t seed) {
  Rng rng{seed};
  std::vector<Ipv6Addr> out;
  const std::uint8_t choices[3] = {0x1, 0x4, 0xa};
  for (std::size_t i = 0; i < n; ++i) {
    auto a = test_support::addr("2001:db8::");
    a = a.with_nybble(8, choices[rng.below(3)]);
    for (unsigned p = 16; p < 32; ++p)
      a = a.with_nybble(p, static_cast<std::uint8_t>(rng.below(16)));
    out.push_back(a);
  }
  return out;
}

TEST(NybbleStats, EntropyExtremes) {
  NybbleStats constant;
  constant.counts[7] = 100;
  EXPECT_DOUBLE_EQ(constant.entropy(), 0.0);

  NybbleStats uniform;
  for (auto& c : uniform.counts) c = 10;
  EXPECT_NEAR(uniform.entropy(), 4.0, 1e-9);

  NybbleStats empty;
  EXPECT_DOUBLE_EQ(empty.entropy(), 0.0);
}

TEST(EntropyModel, SegmentsMatchStructure) {
  const auto model = EntropyModel::fit(structured_list(2000, 42));
  ASSERT_FALSE(model.segments().empty());
  const auto segment_at = [&](unsigned nybble) {
    for (const auto& s : model.segments())
      if (s.first <= nybble && nybble <= s.last) return s;
    ADD_FAILURE() << "no segment covers nybble " << nybble;
    return Segment{};
  };
  // Nybble 8, between constant neighbours, is a low-entropy value-set
  // segment of its own (~log2(3) bits).
  const auto n8 = segment_at(8);
  EXPECT_EQ(n8.kind, Segment::Kind::kValueSet);
  EXPECT_EQ(n8.first, 8u);
  EXPECT_EQ(n8.last, 8u);
  EXPECT_NEAR(n8.mean_entropy, std::log2(3.0), 0.1);
  // Nybbles 0..7 constant; 16+ random.
  for (unsigned i = 0; i < 8; ++i)
    EXPECT_EQ(segment_at(i).kind, Segment::Kind::kConstant) << i;
  for (unsigned i = 20; i < 32; ++i)
    EXPECT_EQ(segment_at(i).kind, Segment::Kind::kRandom) << i;

  // Segment kinds cover the three classes.
  std::set<Segment::Kind> kinds;
  for (const auto& s : model.segments()) kinds.insert(s.kind);
  EXPECT_TRUE(kinds.contains(Segment::Kind::kConstant));
  EXPECT_TRUE(kinds.contains(Segment::Kind::kValueSet));
  EXPECT_TRUE(kinds.contains(Segment::Kind::kRandom));
}

TEST(EntropyModel, GeneratedAddressesRespectStructure) {
  const auto input = structured_list(2000, 7);
  const auto model = EntropyModel::fit(input);
  const auto gen = model.generate(500, Rng{99});
  ASSERT_EQ(gen.size(), 500u);
  const auto prefix = test_support::addr("2001:db8::").masked(32);
  for (const auto& a : gen) {
    EXPECT_EQ(a.masked(32), prefix) << a.to_string();
    const auto n8 = a.nybble(8);
    EXPECT_TRUE(n8 == 0x1 || n8 == 0x4 || n8 == 0xa) << a.to_string();
    for (unsigned p = 9; p < 16; ++p) EXPECT_EQ(a.nybble(p), 0) << a.to_string();
  }
  // Random segments must actually vary.
  std::set<std::uint64_t> iids;
  for (const auto& a : gen) iids.insert(a.lo());
  EXPECT_GT(iids.size(), 400u);
}

TEST(EntropyModel, ValueSetFrequenciesArePreserved) {
  // Value 0x1 appears ~1/3 of the time in the input; generation should
  // sample it with similar frequency (weighted dictionary draw).
  const auto model = EntropyModel::fit(structured_list(3000, 11));
  const auto gen = model.generate(3000, Rng{5});
  std::size_t ones = 0;
  for (const auto& a : gen) ones += a.nybble(8) == 0x1;
  EXPECT_NEAR(static_cast<double>(ones) / 3000.0, 1.0 / 3.0, 0.05);
}

TEST(EntropyModel, DeterministicGivenRng) {
  const auto input = structured_list(500, 3);
  const auto model = EntropyModel::fit(input);
  EXPECT_EQ(model.generate(100, Rng{1}), model.generate(100, Rng{1}));
  EXPECT_NE(model.generate(100, Rng{1}), model.generate(100, Rng{2}));
}

TEST(EntropyModel, EmptyInputGeneratesNothing) {
  const auto model = EntropyModel::fit({});
  EXPECT_TRUE(model.generate(10, Rng{1}).empty());
}

TEST(EntropyModel, SeedListAdapter) {
  const auto model = EntropyModel::fit(structured_list(500, 3));
  const auto list = model.generate_seeds(50, Rng{4}, "entropy");
  EXPECT_EQ(list.name, "entropy");
  EXPECT_EQ(list.size(), 50u);
  for (const auto& e : list.entries) EXPECT_EQ(e.len(), 128u);
}

}  // namespace
}  // namespace beholder6::seeds
