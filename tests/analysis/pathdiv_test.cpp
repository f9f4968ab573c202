// Tests for subnet discovery: IA hack, path-divergence rules, validation,
// stratified sampling — end to end against simnet ground truth.
#include "analysis/pathdiv.hpp"

#include <gtest/gtest.h>

#include "analysis/validate.hpp"
#include "campaign/runner.hpp"
#include "prober/yarrp6.hpp"
#include "support/literals.hpp"
#include "target/synthesis.hpp"

namespace beholder6::analysis {
namespace {

using beholder6::topology::TraceCollector;

class PathDivTest : public ::testing::Test {
 protected:
  PathDivTest() : topo_(simnet::TopologyParams{}) {}

  /// Probe a list of targets through an unlimited network with yarrp6 and
  /// collect traces.
  TraceCollector run_campaign(const std::vector<Ipv6Addr>& targets) {
    simnet::NetworkParams np;
    np.unlimited = true;
    simnet::Network net{topo_, np};
    prober::Yarrp6Config cfg;
    cfg.src = topo_.vantages()[0].src;
    cfg.max_ttl = 24;
    cfg.pps = 10000;
    TraceCollector c;
    prober::Yarrp6Source source{cfg, targets};
    campaign::CampaignRunner::run_one(
        net, source, cfg.endpoint(), cfg.pacing(),
        [&](const wire::DecodedReply& r) { c.on_reply(r); });
    return c;
  }

  std::vector<Ipv6Addr> university_lan_targets(std::size_t per_as) {
    std::vector<Ipv6Addr> out;
    for (const auto& as : topo_.ases()) {
      if (as.type != simnet::AsType::kUniversity) continue;
      for (const auto& s : topo_.enumerate_subnets(as, per_as))
        out.push_back(s.base() | Ipv6Addr::from_halves(0, target::kFixedIid));
    }
    return out;
  }

  simnet::Topology topo_;
};

TEST_F(PathDivTest, IaHackFindsUniversityLansExactly) {
  // University gateways use ::1 in the target /64 — every delivered trace
  // whose last hop responds pins an exact /64.
  const auto targets = university_lan_targets(30);
  ASSERT_GT(targets.size(), 50u);
  const auto c = run_campaign(targets);
  const auto hits = ia_hack(c);
  EXPECT_GT(hits.size(), targets.size() / 4);
  for (const auto& h : hits) {
    EXPECT_TRUE(h.via_ia_hack);
    EXPECT_EQ(h.min_prefix_len, 64u);
    // Ground truth: that /64 genuinely exists.
    const auto truth = topo_.true_subnet(h.target);
    ASSERT_TRUE(truth);
    EXPECT_EQ(truth->len(), 64u);
  }
}

TEST_F(PathDivTest, IaHackIgnoresInfraGateways) {
  // Content networks with infrastructure-numbered gateways must not pin
  // /64s: the last hop is not inside the target's /64.
  std::vector<Ipv6Addr> targets;
  for (const auto& as : topo_.ases()) {
    if (as.type != simnet::AsType::kContent) continue;
    if (as.gateway != simnet::GatewayConvention::kInfraBlock) continue;
    for (const auto& s : topo_.enumerate_subnets(as, 20))
      targets.push_back(s.base() | Ipv6Addr::from_halves(0, target::kFixedIid));
  }
  ASSERT_FALSE(targets.empty());
  const auto c = run_campaign(targets);
  EXPECT_TRUE(ia_hack(c).empty());
}

TEST_F(PathDivTest, DivergenceFindsSubnetsWithSaneLowerBounds) {
  const auto targets = university_lan_targets(40);
  const auto c = run_campaign(targets);
  const auto res = discover_by_path_div(c, topo_, topo_.vantages()[0]);
  EXPECT_GT(res.pairs_examined, 10u);
  EXPECT_GT(res.pairs_divergent, 0u);
  ASSERT_FALSE(res.candidates.empty());
  for (const auto& cand : res.candidates) {
    if (cand.via_ia_hack) continue;
    EXPECT_GE(cand.min_prefix_len, 32u) << "inside the AS /32";
    EXPECT_LE(cand.min_prefix_len, 64u);
    // Lower-bound property: the candidate length never exceeds the true
    // subnet's length... except where truth is coarser than /64 pinning;
    // for divergence candidates the bound must hold.
    const auto truth = topo_.true_subnet(cand.target);
    ASSERT_TRUE(truth) << cand.target.to_string();
    EXPECT_LE(cand.min_prefix_len, truth->len() == 48 ? 64u : truth->len())
        << cand.target.to_string();
  }
}

TEST_F(PathDivTest, RestrictiveParamsRejectMore) {
  const auto targets = university_lan_targets(40);
  const auto c = run_campaign(targets);
  PathDivParams strict;
  strict.min_lcs_len = 4;
  strict.min_ds_len = 2;
  const auto loose = discover_by_path_div(c, topo_, topo_.vantages()[0]);
  const auto tight = discover_by_path_div(c, topo_, topo_.vantages()[0], strict);
  EXPECT_LE(tight.pairs_divergent, loose.pairs_divergent);
}

TEST_F(PathDivTest, DifferentAsnPairsAreSkipped) {
  // Two targets in different ASes must not produce a divergence candidate
  // when T=1 (same-ASN requirement).
  std::vector<Ipv6Addr> targets;
  unsigned unis = 0;
  for (const auto& as : topo_.ases()) {
    if (as.type != simnet::AsType::kUniversity) continue;
    const auto subnets = topo_.enumerate_subnets(as, 1);
    if (subnets.empty()) continue;
    targets.push_back(subnets[0].base() | Ipv6Addr::from_halves(0, target::kFixedIid));
    if (++unis == 2) break;
  }
  ASSERT_EQ(targets.size(), 2u);
  const auto c = run_campaign(targets);
  const auto res = discover_by_path_div(c, topo_, topo_.vantages()[0]);
  EXPECT_EQ(res.pairs_divergent, 0u);
}

TEST_F(PathDivTest, ValidationScoresExactAndShortMatches) {
  const auto targets = university_lan_targets(40);
  const auto c = run_campaign(targets);
  const auto res = discover_by_path_div(c, topo_, topo_.vantages()[0]);
  const auto rep = validate_candidates(res.candidates, topo_);
  EXPECT_EQ(rep.candidates, res.candidates.size());
  EXPECT_GT(rep.exact_matches + rep.more_specific + rep.one_bit_short +
                rep.two_bits_short,
            0u);
  // IA-hack candidates in universities are exact /64s, so exact matches
  // must be present.
  EXPECT_GT(rep.exact_matches, 0u);
}

TEST_F(PathDivTest, StratifiedSamplingKeepsOnePerTrueSubnet) {
  auto targets = university_lan_targets(20);
  // Duplicate every target with a second IID in the same /64.
  const auto n = targets.size();
  for (std::size_t i = 0; i < n; ++i)
    targets.push_back(Ipv6Addr::from_halves(targets[i].hi(), 0xabcd));
  const auto sample = stratified_sample(targets, topo_);
  EXPECT_EQ(sample.size(), n) << "one representative per /64";
}

TEST(PathDivUnit, IaHackIsSortedAndInsertionOrderIndependent) {
  // Regression: ia_hack used to emit candidates in the collector's trace
  // table layout order, which depends on insertion history — a serial run
  // and a split-merged run built different layouts from identical trace
  // content and produced differently ordered candidate lists. The result
  // must be a pure function of the trace *set*: target-sorted, identical
  // whatever order the replies arrived in.
  constexpr std::uint64_t kCells = 64;
  auto reply_for = [](std::uint64_t cell) {
    wire::DecodedReply r;
    const std::uint64_t hi = 0x20010db8'00000000ULL + cell * 0x2'0001ULL;
    r.responder = Ipv6Addr::from_halves(hi, 1);  // the ::1 gateway
    r.probe.target = Ipv6Addr::from_halves(hi, 0x42);
    r.probe.ttl = 5;
    return r;  // defaults: Time Exceeded, so this is the last router hop
  };
  TraceCollector fwd, rev;
  for (std::uint64_t c = 0; c < kCells; ++c) fwd.on_reply(reply_for(c));
  for (std::uint64_t c = kCells; c-- > 0;) rev.on_reply(reply_for(c));

  const auto a = ia_hack(fwd), b = ia_hack(rev);
  ASSERT_EQ(a.size(), kCells);
  ASSERT_EQ(b.size(), kCells);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].target, b[i].target) << "at index " << i;
    EXPECT_EQ(a[i].min_prefix_len, 64u);
    EXPECT_TRUE(a[i].via_ia_hack);
    if (i > 0) {
      EXPECT_LT(a[i - 1].target, a[i].target) << "not target-sorted";
    }
  }
}

TEST(PathDivUnit, LengthHistogram) {
  std::set<Prefix> prefixes{test_support::prefix("2001:db8::", 48),
                            test_support::prefix("2001:db8:1::", 48),
                            test_support::prefix("2001:db8::", 64)};
  const auto h = length_histogram(prefixes);
  ASSERT_EQ(h.size(), 65u);
  EXPECT_EQ(h[48], 2u);
  EXPECT_EQ(h[64], 1u);
  EXPECT_EQ(h[32], 0u);
}

}  // namespace
}  // namespace beholder6::analysis
