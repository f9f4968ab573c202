// Tests for the §6 data-augmentation features of discoverByPathDiv:
// equivalent-ASN families and RIR-registered (unannounced) router space.
#include <gtest/gtest.h>

#include "analysis/pathdiv.hpp"
#include "support/literals.hpp"
#include "topology/collector.hpp"

namespace beholder6::analysis {
namespace {

using beholder6::topology::TraceCollector;

/// Feed one synthetic trace into a collector: hops at TTL 1..n.
void add_trace(TraceCollector& c, const Ipv6Addr& target,
               const std::vector<Ipv6Addr>& hops) {
  for (std::size_t i = 0; i < hops.size(); ++i) {
    wire::DecodedReply r;
    r.probe.target = target;
    r.probe.ttl = static_cast<std::uint8_t>(i + 1);
    r.responder = hops[i];
    r.type = wire::Icmp6Type::kTimeExceeded;
    c.on_reply(r);
  }
}

class AugmentationTest : public ::testing::Test {
 protected:
  AugmentationTest() : topo_(simnet::TopologyParams{}) {
    // Two targets in one announced /32 with shared first hops and a
    // diverging tail — the canonical divergent pair.
    const auto& as = dest_as();
    base_hi_ = as.prefixes[0].base().hi();
    t1_ = Ipv6Addr::from_halves(base_hi_ | 0x100, 0x1234);
    t2_ = Ipv6Addr::from_halves(base_hi_ | 0x200, 0x1234);
  }

  const simnet::AsInfo& dest_as() {
    // Any AS that is not the vantage's.
    for (const auto& as : topo_.ases())
      if (as.asn != topo_.vantages()[0].asn) return as;
    throw std::runtime_error("no AS");
  }

  /// Hop addresses inside the destination AS's announced space.
  Ipv6Addr in_as(std::uint64_t salt) const {
    return Ipv6Addr::from_halves(base_hi_ | (0xff00ULL << 16) | salt, 1);
  }

  PathDivResult run(TraceCollector& c, const PathDivParams& params) {
    return discover_by_path_div(c, topo_, topo_.vantages()[0], params);
  }

  simnet::Topology topo_;
  std::uint64_t base_hi_ = 0;
  Ipv6Addr t1_, t2_;
};

TEST_F(AugmentationTest, BaselinePairIsDivergent) {
  TraceCollector c;
  add_trace(c, t1_, {in_as(1), in_as(2), in_as(3)});
  add_trace(c, t2_, {in_as(1), in_as(2), in_as(4)});
  const auto res = run(c, PathDivParams{});
  EXPECT_EQ(res.pairs_divergent, 1u);
}

TEST_F(AugmentationTest, UnannouncedRouterSpaceFailsWithoutRirAugmentation) {
  // The same pair, but every in-AS hop is numbered from space that no BGP
  // announcement covers (2a0f::/32 is unrouted in the simulation).
  const auto r1 = test_support::addr("2a0f:beef::1");
  const auto r2 = test_support::addr("2a0f:beef::2");
  const auto r3 = test_support::addr("2a0f:beef::3");
  const auto r4 = test_support::addr("2a0f:beef::4");
  ASSERT_FALSE(topo_.origin(r1).has_value());

  TraceCollector c;
  add_trace(c, t1_, {r1, r2, r3});
  add_trace(c, t2_, {r1, r2, r4});
  // Without augmentation, no hop matches the target ASN: C fails.
  EXPECT_EQ(run(c, PathDivParams{}).pairs_divergent, 0u);

  // With the RIR prefix mapped to the destination ASN, the pair passes.
  PathDivParams params;
  params.rir_prefixes.emplace_back(test_support::prefix("2a0f:beef::", 32),
                                   dest_as().asn);
  EXPECT_EQ(run(c, params).pairs_divergent, 1u);
}

TEST_F(AugmentationTest, RirLongestMatchWins) {
  PathDivParams params;
  params.rir_prefixes.emplace_back(test_support::prefix("2a0f::", 16), 65000);
  params.rir_prefixes.emplace_back(test_support::prefix("2a0f:beef::", 32),
                                   dest_as().asn);
  const auto r1 = test_support::addr("2a0f:beef::1");
  const auto r2 = test_support::addr("2a0f:beef::2");
  TraceCollector c;
  add_trace(c, t1_, {r1, r2, test_support::addr("2a0f:beef::3")});
  add_trace(c, t2_, {r1, r2, test_support::addr("2a0f:beef::4")});
  // The /32 (destination ASN) must win over the covering /16 (foreign ASN).
  EXPECT_EQ(run(c, params).pairs_divergent, 1u);
}

TEST_F(AugmentationTest, SiblingAsnsFailWithoutEquivalence) {
  // Router hops are announced by a *different* AS than the targets (the
  // infra-vs-customer origin split): pick another AS's space for hops.
  const simnet::AsInfo* other = nullptr;
  for (const auto& as : topo_.ases())
    if (as.asn != dest_as().asn && as.asn != topo_.vantages()[0].asn) other = &as;
  ASSERT_NE(other, nullptr);
  const auto oh = other->prefixes[0].base().hi();
  const auto h1 = Ipv6Addr::from_halves(oh | 0x1, 1);
  const auto h2 = Ipv6Addr::from_halves(oh | 0x2, 1);
  const auto h3 = Ipv6Addr::from_halves(oh | 0x3, 1);
  const auto h4 = Ipv6Addr::from_halves(oh | 0x4, 1);

  TraceCollector c;
  add_trace(c, t1_, {h1, h2, h3});
  add_trace(c, t2_, {h1, h2, h4});
  EXPECT_EQ(run(c, PathDivParams{}).pairs_divergent, 0u)
      << "hop ASN != target ASN must fail C/S without equivalence";

  PathDivParams params;
  params.equivalent_asns[other->asn] = dest_as().asn;
  EXPECT_EQ(run(c, params).pairs_divergent, 1u);
}

TEST_F(AugmentationTest, EquivalenceAppliesToVantageRule) {
  // Last hop in an AS equivalent to the *vantage's* must be rejected by A.
  const auto vasn = topo_.vantages()[0].asn;
  TraceCollector c;
  // Divergent tails land in an AS we declare equivalent to the vantage's.
  const simnet::AsInfo* other = nullptr;
  for (const auto& as : topo_.ases())
    if (as.asn != dest_as().asn && as.asn != vasn) other = &as;
  const auto oh = other->prefixes[0].base().hi();
  add_trace(c, t1_, {in_as(1), in_as(2), Ipv6Addr::from_halves(oh | 1, 1)});
  add_trace(c, t2_, {in_as(1), in_as(2), Ipv6Addr::from_halves(oh | 2, 1)});

  PathDivParams params;
  // S would fail (tail hops are in `other`), so declare other ≡ dest to
  // isolate the A rule...
  params.equivalent_asns[other->asn] = dest_as().asn;
  EXPECT_EQ(run(c, params).pairs_divergent, 1u);
  // ...then also declare the destination family equivalent to the vantage:
  // now the last hop is "inside" the vantage ASN and A rejects.
  params.equivalent_asns[dest_as().asn] = vasn;
  params.equivalent_asns[other->asn] = vasn;
  EXPECT_EQ(run(c, params).pairs_divergent, 0u);
}

TEST_F(AugmentationTest, CanonicalIsIdentityWithoutMap) {
  PathDivParams params;
  EXPECT_EQ(params.canonical(42), 42u);
  params.equivalent_asns[42] = 7;
  EXPECT_EQ(params.canonical(42), 7u);
  EXPECT_EQ(params.canonical(7), 7u);
}

}  // namespace
}  // namespace beholder6::analysis
