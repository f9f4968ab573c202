// The path oracle's precomputed route chains: Topology::path_into from an
// element of vantages() (chain copy + per-target descent) must equal the
// direct computation a foreign VantageInfo takes, for every vantage, ECMP
// variant, protocol and path end; reused scratch Paths must not leak state
// between targets; concurrent readers of one Topology must see the serial
// results (the Topology is immutable, there is no lock to argue about).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <vector>

#include "netbase/rng.hpp"
#include "simnet/topology.hpp"
#include "support/literals.hpp"

namespace beholder6::simnet {
namespace {

constexpr std::uint64_t kFlowHashes[] = {0, 1, 7, (1ULL << 40) + 3};
constexpr std::uint8_t kProtos[] = {58, 17, 6};

class PathChainTest : public ::testing::Test {
 protected:
  PathChainTest() : topo_(TopologyParams{.seed = 20180514}) {
    // Mixed targets per AS: subnet bases, gateways, random addresses inside
    // every announced prefix (absent levels, firewalls), a bogus region,
    // plus unrouted space. Shuffled so consecutive resolutions into one
    // scratch Path keep changing end, origin AS and firewall code.
    Rng rng{0x9a7c};
    for (const auto& as : topo_.ases()) {
      for (const auto& s : topo_.enumerate_subnets(as, 16)) {
        targets_.push_back(s.base() | Ipv6Addr::from_halves(0, 1));
        targets_.push_back(topo_.gateway_iface(as, s));
      }
      for (const auto& p : as.prefixes)
        for (int i = 0; i < 4; ++i) {
          const auto host_bits = p.len() >= 64 ? 0 : rng() >> p.len();
          targets_.push_back(Ipv6Addr::from_halves(p.base().hi() | host_bits, rng()));
        }
      targets_.push_back(as.prefixes[0].base() | Ipv6Addr::from_halves(0xfeULL << 24, 1));
    }
    for (int i = 0; i < 16; ++i)
      targets_.push_back(Ipv6Addr::from_halves((0x2a10ULL << 48) | (rng() >> 16), rng()));
    std::shuffle(targets_.begin(), targets_.end(), rng);
  }

  Topology topo_;
  std::vector<Ipv6Addr> targets_;
};

TEST_F(PathChainTest, FastPathEqualsDirectComputation) {
  std::set<PathEnd> ends;
  Path fast;  // reused across every target, vantage, flow and protocol
  for (const auto& vantage : topo_.vantages()) {
    // Not an element of vantages(): path_into resolves it from the AS
    // graph instead of copying a precomputed chain.
    const VantageInfo copy = vantage;
    for (const auto flow : kFlowHashes)
      for (const auto proto : kProtos)
        for (const auto& target : targets_) {
          topo_.path_into(vantage, target, flow, proto, fast);
          Path direct;
          topo_.path_into(copy, target, flow, proto, direct);
          ASSERT_EQ(fast, direct) << vantage.name << " " << target.to_string()
                                  << " flow " << flow << " proto " << int{proto};
          ASSERT_EQ(fast, topo_.path(vantage, target, flow, proto));
          ends.insert(fast.end);
        }
  }
  // The sample must reach every terminal disposition, or the equality
  // above says nothing about some branch.
  EXPECT_EQ(ends, (std::set<PathEnd>{PathEnd::kDelivered, PathEnd::kNoRoute,
                                     PathEnd::kFirewalled, PathEnd::kUnrouted,
                                     PathEnd::kTransportDenied}));
}

TEST_F(PathChainTest, AlteredVantageCopyGetsItsOwnPremise) {
  for (const auto& vantage : topo_.vantages()) {
    const auto premise = vantage.premise_hops;
    VantageInfo none = vantage, longer = vantage;
    none.premise_hops = 0;
    longer.premise_hops = premise + 2;
    for (const auto& target : targets_) {
      const auto ref = topo_.path(vantage, target, 1, 58);
      ASSERT_GT(ref.hops.size(), premise);
      // No premise: the reference path minus its premise chain.
      const auto short_path = topo_.path(none, target, 1, 58);
      EXPECT_TRUE(std::equal(short_path.hops.begin(), short_path.hops.end(),
                             ref.hops.begin() + premise, ref.hops.end()));
      EXPECT_EQ(short_path.hops.size(), ref.hops.size() - premise);
      EXPECT_EQ(short_path.end, ref.end);
      EXPECT_EQ(short_path.dest_asn, ref.dest_asn);
      EXPECT_EQ(short_path.firewall_code, ref.firewall_code);
      // Two more premise hops: same prefix, two new routers, same rest.
      const auto long_path = topo_.path(longer, target, 1, 58);
      ASSERT_EQ(long_path.hops.size(), ref.hops.size() + 2);
      EXPECT_TRUE(std::equal(ref.hops.begin(), ref.hops.begin() + premise,
                             long_path.hops.begin()));
      EXPECT_TRUE(std::equal(ref.hops.begin() + premise, ref.hops.end(),
                             long_path.hops.begin() + premise + 2));
      for (unsigned k = premise; k < premise + 2; ++k)
        EXPECT_TRUE(std::none_of(ref.hops.begin(), ref.hops.end(), [&](const Hop& h) {
          return h.router_id == long_path.hops[k].router_id;
        }));
      EXPECT_EQ(long_path.end, ref.end);
    }
  }
}

// A copied Topology would hold its own vantages(), foreign to the original.
static_assert(!std::is_copy_constructible_v<Topology>);
static_assert(!std::is_copy_assignable_v<Topology>);

TEST_F(PathChainTest, VantageIdentityIsByAddress) {
  const auto& vantages = topo_.vantages();
  for (std::size_t i = 0; i < vantages.size(); ++i) {
    EXPECT_EQ(topo_.vantage_index(vantages[i]), i);
    const VantageInfo copy = vantages[i];
    EXPECT_EQ(topo_.vantage_index(copy), std::nullopt);
  }
}

TEST_F(PathChainTest, ConcurrentReadersSeeTheSerialResults) {
  struct Query {
    std::size_t vantage;
    std::uint64_t flow;
    std::uint8_t proto;
    Ipv6Addr target;
  };
  std::vector<Query> queries;
  for (std::size_t v = 0; v < topo_.vantages().size(); ++v)
    for (const std::uint64_t flow : {0, 1})
      for (const std::uint8_t proto : {58, 17})
        for (const auto& target : targets_) queries.push_back({v, flow, proto, target});
  std::vector<Path> serial(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const auto& q = queries[i];
    topo_.path_into(topo_.vantages()[q.vantage], q.target, q.flow, q.proto, serial[i]);
  }

  constexpr std::size_t kThreads = 4;
  std::vector<std::size_t> mismatches(kThreads, 0);
  {
    std::vector<std::jthread> pool;
    for (std::size_t t = 0; t < kThreads; ++t)
      pool.emplace_back([&, t] {
        // Each thread starts a quarter further in, so the four walk
        // different queries at any moment.
        Path scratch;
        for (std::size_t k = 0; k < queries.size(); ++k) {
          const std::size_t i = (k + t * queries.size() / kThreads) % queries.size();
          const auto& q = queries[i];
          topo_.path_into(topo_.vantages()[q.vantage], q.target, q.flow, q.proto,
                          scratch);
          mismatches[t] += scratch != serial[i];
        }
      });
  }
  EXPECT_EQ(mismatches, std::vector<std::size_t>(kThreads, 0));
}

TEST(PathChainValidation, RejectsWorldsWithoutCoreOrVantageAses) {
  // Uplinks are drawn modulo the tier-1 and transit counts.
  EXPECT_THROW(Topology(TopologyParams{.num_tier1 = 0}), std::invalid_argument);
  EXPECT_THROW(Topology(TopologyParams{.num_transit = 0}), std::invalid_argument);
  // The vantages live in the university and small-edge ASes.
  EXPECT_THROW(Topology(TopologyParams{.num_university = 0, .num_small_edge = 0}),
               std::invalid_argument);
  // A smallest valid world still routes every AS from every vantage.
  const Topology tiny{TopologyParams{.num_tier1 = 1, .num_transit = 1, .num_eyeball = 0,
                                     .num_content = 0, .num_university = 2,
                                     .num_small_edge = 1}};
  for (const auto& v : tiny.vantages())
    EXPECT_EQ(tiny.path(v, test_support::addr("2a10:dead::1"), 0, 58).end,
              PathEnd::kUnrouted);
}

TEST(PathChainValidation, ForeignVantageOutsideEveryAsThrows) {
  const Topology topo{TopologyParams{}};
  VantageInfo nowhere = topo.vantages()[0];
  nowhere.asn = 1;
  Path out;
  EXPECT_THROW(topo.path_into(nowhere, test_support::addr("2a10:dead::1"), 0, 58, out),
               std::invalid_argument);
}

}  // namespace
}  // namespace beholder6::simnet
