// Pacing correctness tests for the Pacer clock arithmetic. Every case
// drives its script twice, through CampaignRunner::run_one and as a bare
// Pacer loop, and the two must agree exactly:
//  * pps >= 1e6 must still advance the virtual clock (the legacy integer
//    truncation yielded a 0 µs gap, freezing the clock so buckets never
//    refilled);
//  * fractional gaps must not drift the long-run average rate (pps = 3 was
//    paced at 333333 µs instead of 333333.3̅);
//  * integral gaps stay bit-identical to the classic loops;
//  * a round boundary under uniform pacing is pacing-neutral by definition
//    (no clock advance, no division by pps);
//  * a zero-gap burst round shares one send instant, its probes still go
//    out one at a time, and the round budget idles the clock afterwards.
#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "campaign/runner.hpp"
#include "simnet/topology.hpp"
#include "wire/probe.hpp"

namespace beholder6::campaign {
namespace {

/// Replays a fixed script of polls; probe order is feedback-independent.
class ScriptSource final : public ProbeSource {
 public:
  explicit ScriptSource(std::vector<Poll> script) : script_(std::move(script)) {}

  Poll next(std::uint64_t) override {
    return i_ < script_.size() ? script_[i_++] : Poll::exhausted();
  }

 private:
  std::vector<Poll> script_;
  std::size_t i_ = 0;
};

class PacingTest : public ::testing::Test {
 protected:
  PacingTest() : topo_(simnet::TopologyParams{}) {}

  static simnet::NetworkParams unlimited() {
    simnet::NetworkParams p;
    p.unlimited = true;
    return p;
  }

  /// A probe-only script of n identical probes toward an existing subnet.
  std::vector<Poll> probes(std::size_t n, std::uint8_t ttl = 4) {
    const auto& as = topo_.ases().front();
    const auto target =
        topo_.enumerate_subnets(as, 1)[0].base() | Ipv6Addr::from_halves(0, 0x42);
    std::vector<Poll> script;
    for (std::size_t i = 0; i < n; ++i) script.push_back(Poll::emit({target, ttl}));
    return script;
  }

  using Outcome = std::pair<ProbeStats, std::vector<std::uint32_t>>;

  /// Run a script at the given pacing through CampaignRunner::run_one or,
  /// if `bare`, a Pacer stepped directly; returns (stats, send times in µs
  /// decoded from the emitted probes themselves).
  Outcome drive(const std::vector<Poll>& script, const PacingPolicy& pacing,
                bool bare) {
    simnet::Network net{topo_, unlimited()};
    std::vector<std::uint32_t> sent_at;
    net.set_probe_observer(
        [&](const simnet::Packet& probe, std::span<const simnet::Packet>) {
          sent_at.push_back(wire::decode_probe(probe)->elapsed_us);
        });
    ScriptSource source{script};
    Endpoint endpoint{topo_.vantages()[0].src, wire::Proto::kIcmp6, 1};
    if (!bare)
      return {CampaignRunner::run_one(net, source, endpoint, pacing),
              std::move(sent_at)};
    Pacer pacer{source, endpoint, pacing, {}, net.now_us()};
    simnet::Packet probe_buf;
    while (pacer.step(net, probe_buf)) {
    }
    EXPECT_TRUE(pacer.done());
    return {pacer.stats(), std::move(sent_at)};
  }

  /// drive() both ways; the results must be equal.
  Outcome run(const std::vector<Poll>& script, const PacingPolicy& pacing) {
    auto via_runner = drive(script, pacing, false);
    const auto via_pacer = drive(script, pacing, true);
    EXPECT_EQ(via_runner.first, via_pacer.first) << "bare Pacer stats differ";
    EXPECT_EQ(via_runner.second, via_pacer.second)
        << "bare Pacer send times differ";
    return via_runner;
  }

  simnet::Topology topo_;
};

TEST_F(PacingTest, MillionPlusPpsStillAdvancesTheClock) {
  // 2 Mpps: the ideal gap is 0.5 µs. The legacy truncation made it 0 — the
  // clock froze and every probe landed on one tick. With the fractional
  // accumulator the clock steps 0,1,0,1,... and averages exactly 2 Mpps.
  const auto [stats, sent_at] = run(probes(10), PacingPolicy::uniform(2'000'000));
  EXPECT_EQ(stats.probes_sent, 10u);
  EXPECT_EQ(stats.elapsed_virtual_us, 5u) << "10 probes / 2 Mpps = 5 us";
  ASSERT_EQ(sent_at.size(), 10u);
  EXPECT_EQ(sent_at.front(), 0u);
  EXPECT_EQ(sent_at.back(), 4u) << "probe 10 goes out at floor(9 * 0.5)";
}

TEST_F(PacingTest, FractionalPpsDoesNotDriftLongRun) {
  // pps = 3: ideal gap 333333.3̅ µs. The legacy 333333 µs gap loses a full
  // probe slot every ~3e6 probes (1 µs per 3 probes: 100 µs over 300).
  const std::size_t n = 300;
  const auto [stats, sent_at] = run(probes(n), PacingPolicy::uniform(3));
  const double ideal_us = static_cast<double>(n) * 1e6 / 3.0;
  EXPECT_LE(std::llabs(static_cast<long long>(stats.elapsed_virtual_us) -
                       static_cast<long long>(ideal_us)),
            1)
      << "average rate must be exact to within rounding";
  // Legacy truncation would give n * 333333 = ideal - 100.
  EXPECT_NE(stats.elapsed_virtual_us, n * 333333u);
}

TEST_F(PacingTest, IntegralGapsStayBitIdentical) {
  // 1000 pps divides 1e6 exactly: the accumulator must carry exactly zero
  // and reproduce the classic n * 1000 schedule.
  const auto [stats, sent_at] = run(probes(25), PacingPolicy::uniform(1000));
  EXPECT_EQ(stats.elapsed_virtual_us, 25'000u);
  for (std::size_t i = 0; i < sent_at.size(); ++i)
    EXPECT_EQ(sent_at[i], i * 1000) << "probe " << i;
}

TEST_F(PacingTest, UniformRoundEndIsPacingNeutral) {
  // A uniform-paced source emitting round boundaries: every probe already
  // paid its full gap, so boundaries must not move the clock (and must not
  // divide by pps). The schedule equals the boundary-free one.
  auto script = probes(4);
  std::vector<Poll> with_bounds;
  for (const auto& p : script) {
    with_bounds.push_back(p);
    with_bounds.push_back(Poll::round_end());
  }
  const auto plain = run(script, PacingPolicy::uniform(1000));
  const auto bounded = run(with_bounds, PacingPolicy::uniform(1000));
  EXPECT_EQ(plain.first, bounded.first);
  EXPECT_EQ(plain.second, bounded.second);
}

TEST_F(PacingTest, BurstRoundBudgetIsExactAcrossRounds) {
  // Bursty pacing at pps = 3, one probe per round: each round's ideal
  // budget is 333333.3̅ µs, so truncating per round (the legacy arithmetic)
  // drifts 1 µs every 3 rounds. With the carried remainder, round starts
  // follow floor(k * 1e6/3) exactly: 0, 333333, 666666, 1000000, ...
  std::vector<Poll> script;
  const auto p = probes(1)[0];
  for (int k = 0; k < 6; ++k) {
    script.push_back(p);
    script.push_back(Poll::round_end());
  }
  const auto [stats, sent_at] = run(script, PacingPolicy::burst(3, 1));
  ASSERT_EQ(sent_at.size(), 6u);
  for (std::size_t k = 0; k < sent_at.size(); ++k) {
    const auto ideal = static_cast<std::uint32_t>(
        static_cast<double>(k) * 1e6 / 3.0);
    EXPECT_LE(std::llabs(static_cast<long long>(sent_at[k]) -
                         static_cast<long long>(ideal)),
              1)
        << "round " << k;
  }
  EXPECT_GE(sent_at[3], 999'999u) << "three rounds must span a full second";
}

TEST_F(PacingTest, ZeroGapBurstWindowSharesOneInstantAndIdlesBudget) {
  // line_rate_gap_us = 0: each round's probes share one send instant and
  // the round budget alone advances the clock.
  std::vector<Poll> script;
  const auto window = probes(5);
  for (int round = 0; round < 2; ++round) {
    for (const auto& p : window) script.push_back(p);
    script.push_back(Poll::round_end());
  }
  const auto [stats, sent_at] = run(script, PacingPolicy::burst(1000, 0));
  EXPECT_EQ(stats.probes_sent, 10u);
  ASSERT_EQ(sent_at.size(), 10u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(sent_at[i], 0u) << "round 1 is one instant";
    EXPECT_EQ(sent_at[5 + i], 5000u) << "round 2 starts after the 5-probe budget";
  }
  EXPECT_GT(stats.replies, 0u) << "same-instant replies must still dispatch";
}

TEST_F(PacingTest, ZeroGapBurstMatchesPerProbeInjectionCounts) {
  // A zero gap only moves send instants: the same window probed with a
  // 1 µs in-burst gap must see identical probe and reply counts on an
  // unlimited network (only timestamps differ).
  std::vector<Poll> script;
  for (int round = 0; round < 3; ++round) {
    for (const auto& p : probes(4)) script.push_back(p);
    script.push_back(Poll::round_end());
  }
  const auto batched = run(script, PacingPolicy::burst(1000, 0));
  const auto looped = run(script, PacingPolicy::burst(1000, 1));
  EXPECT_EQ(batched.first.probes_sent, looped.first.probes_sent);
  EXPECT_EQ(batched.first.replies, looped.first.replies);
}

}  // namespace
}  // namespace beholder6::campaign
