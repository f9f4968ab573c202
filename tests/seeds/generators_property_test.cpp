// Property tests across the seed-source generators: determinism, scaling,
// routedness contracts, and classifier edge cases.
#include <gtest/gtest.h>

#include <set>

#include "seeds/classify.hpp"
#include "seeds/sources.hpp"
#include "support/literals.hpp"
#include "target/transform.hpp"

namespace beholder6::seeds {
namespace {

const simnet::Topology& topo() {
  static const simnet::Topology t{simnet::TopologyParams{}};
  return t;
}

using Maker = target::SeedList (*)(const simnet::Topology&, const SeedScale&,
                                   std::uint64_t);

struct NamedMaker {
  const char* name;
  Maker make;
};

class GeneratorProperty : public ::testing::TestWithParam<NamedMaker> {};

TEST_P(GeneratorProperty, DeterministicPerSeedAndDistinctAcrossSeeds) {
  const auto& m = GetParam();
  const SeedScale sc;
  const auto a = m.make(topo(), sc, 99);
  const auto b = m.make(topo(), sc, 99);
  EXPECT_EQ(a.entries, b.entries);
  const auto c = m.make(topo(), sc, 100);
  // Some generators are pure functions of ground truth (caida enumerates
  // BGP); those may coincide. Generators with sampling must differ.
  if (std::string(m.name) != "caida") {
    EXPECT_NE(a.entries, c.entries);
  }
}

TEST_P(GeneratorProperty, ScaleShrinksTheList) {
  const auto& m = GetParam();
  SeedScale full, tiny;
  tiny.scale = 0.2;
  const auto big = m.make(topo(), full, 7);
  const auto small = m.make(topo(), tiny, 7);
  EXPECT_GT(big.size(), 0u);
  EXPECT_GT(small.size(), 0u);
  EXPECT_LE(small.size(), big.size());
}

TEST_P(GeneratorProperty, EntriesAreWellFormed) {
  const auto& m = GetParam();
  const auto l = m.make(topo(), SeedScale{}, 7);
  for (const auto& e : l.entries) {
    EXPECT_LE(e.len(), 128u);
    // Base must be canonical: masked at its own length.
    EXPECT_EQ(e.base(), e.base().masked(e.len()));
  }
  EXPECT_FALSE(l.name.empty());
}

INSTANTIATE_TEST_SUITE_P(
    Sources, GeneratorProperty,
    ::testing::Values(NamedMaker{"caida", make_caida},
                      NamedMaker{"fiebig", make_fiebig},
                      NamedMaker{"fdns", make_fdns_any},
                      NamedMaker{"dnsdb", make_dnsdb},
                      NamedMaker{"6gen", make_6gen},
                      NamedMaker{"tum", make_tum},
                      NamedMaker{"random", make_random}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(GeneratorContract, RandomIsEntirelyRouted) {
  const auto l = make_random(topo(), SeedScale{}, 3);
  for (const auto& e : l.entries)
    EXPECT_TRUE(topo().bgp().covers(e.base())) << e.base().to_string();
}

TEST(GeneratorContract, CdnListsAreAggregatePrefixesNotAddresses) {
  for (const unsigned k : {32u, 256u}) {
    const auto l = make_cdn(topo(), SeedScale{}, k, 5);
    ASSERT_GT(l.size(), 0u) << "k=" << k;
    for (const auto& e : l.entries) EXPECT_LT(e.len(), 128u) << "k=" << k;
  }
}

TEST(GeneratorContract, CdnK32RefinesCdnK256) {
  // Smaller k = weaker anonymity = more, longer prefixes. Every k32
  // aggregate must lie inside some k256 aggregate or cover space k256
  // dropped entirely (below its anonymity threshold); where both cover,
  // k32's covering prefix is at least as long.
  const auto k32 = make_cdn(topo(), SeedScale{}, 32, 5);
  const auto k256 = make_cdn(topo(), SeedScale{}, 256, 5);
  EXPECT_GT(k32.size(), k256.size());
  double len32 = 0, len256 = 0;
  for (const auto& e : k32.entries) len32 += e.len();
  for (const auto& e : k256.entries) len256 += e.len();
  EXPECT_GT(len32 / static_cast<double>(k32.size()),
            len256 / static_cast<double>(k256.size()));
}

TEST(GeneratorContract, TumContainsMostOfFdns) {
  // The paper: 88% of fdns_any targets are contained in tum.
  const auto tum = make_tum(topo(), SeedScale{}, 7);
  const auto fdns = make_fdns_any(topo(), SeedScale{}, 7);
  std::set<Prefix> in_tum(tum.entries.begin(), tum.entries.end());
  std::size_t contained = 0;
  for (const auto& e : fdns.entries) contained += in_tum.contains(e);
  EXPECT_GT(static_cast<double>(contained) / static_cast<double>(fdns.size()), 0.8);
}

TEST(ClassifierEdge, Eui64RequiresFffeInfix) {
  // ff:fe at bytes 11-12 marks an EUI-64 expansion.
  EXPECT_EQ(classify_iid(test_support::addr("2001:db8::0211:22ff:fe33:4455")),
            IidClass::kEui64);
  // Same bytes without the infix: not EUI-64.
  EXPECT_NE(classify_iid(test_support::addr("2001:db8::0211:22fa:fa33:4455")),
            IidClass::kEui64);
}

TEST(ClassifierEdge, LowByteBoundary) {
  EXPECT_EQ(classify_iid(test_support::addr("2001:db8::")), IidClass::kLowByte);
  EXPECT_EQ(classify_iid(test_support::addr("2001:db8::ffff")), IidClass::kLowByte);
  EXPECT_EQ(classify_iid(test_support::addr("2001:db8::1:0000")), IidClass::kRandom);
}

TEST(ClassifierEdge, PrefixBitsDoNotAffectIidClass) {
  for (const char* prefix : {"2001:db8:ffff:ffff", "0:0:0:1", "2610:99:0:1"}) {
    const auto a = test_support::addr((std::string(prefix) + "::7").c_str());
    EXPECT_EQ(classify_iid(a), IidClass::kLowByte) << prefix;
  }
}

}  // namespace
}  // namespace beholder6::seeds
