// Tests for the packet-level network: TE generation per hop, terminal
// behaviours, rate limiting under the virtual clock, ND negative caching.
#include "simnet/network.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <optional>
#include <vector>

#include "netbase/rng.hpp"
#include "simnet/token_bucket.hpp"
#include "support/big_echo.hpp"
#include "support/literals.hpp"
#include "wire/probe.hpp"

namespace beholder6::simnet {
namespace {

using wire::Icmp6Type;
using wire::Proto;

class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest() : topo_(TopologyParams{}), net_(topo_, unlimited_params()) {}

  static NetworkParams unlimited_params() {
    NetworkParams p;
    p.unlimited = true;
    return p;
  }

  /// An existing eyeball /64 to aim probes at.
  Prefix some_subnet(AsType type = AsType::kEyeballIsp, unsigned skip = 0) {
    for (const auto& as : topo_.ases()) {
      if (as.type != type) continue;
      const auto subnets = topo_.enumerate_subnets(as, skip + 1);
      if (subnets.size() > skip) return subnets[skip];
    }
    throw std::runtime_error("no subnet found");
  }

  wire::ProbeSpec spec_for(const Ipv6Addr& target, std::uint8_t ttl,
                           Proto proto = Proto::kIcmp6) {
    wire::ProbeSpec s;
    s.src = topo_.vantages()[0].src;
    s.target = target;
    s.proto = proto;
    s.ttl = ttl;
    s.elapsed_us = static_cast<std::uint32_t>(net_.now_us());
    return s;
  }

  std::optional<wire::DecodedReply> probe(const Ipv6Addr& target, std::uint8_t ttl,
                                          Proto proto = Proto::kIcmp6) {
    const auto replies = net_.inject_view(wire::encode_probe(spec_for(target, ttl, proto)));
    if (replies.empty()) return std::nullopt;
    return wire::decode_reply(replies[0], static_cast<std::uint32_t>(net_.now_us()));
  }

  Topology topo_;
  Network net_;
};

TEST_F(NetworkTest, TimeExceededFromEachHopInOrder) {
  const auto s = some_subnet();
  const auto target = Ipv6Addr::from_halves(s.base().hi(), 0x999);
  const auto path = topo_.path(topo_.vantages()[0], target, 0, 58);
  std::vector<Ipv6Addr> seen;
  for (std::uint8_t ttl = 1; ttl <= path.hops.size(); ++ttl) {
    const auto r = probe(target, ttl);
    ASSERT_TRUE(r) << "hop " << int(ttl);
    EXPECT_EQ(r->type, Icmp6Type::kTimeExceeded);
    EXPECT_EQ(r->probe.ttl, ttl);
    EXPECT_EQ(r->probe.target, target);
    seen.push_back(r->responder);
  }
  // Responders must be exactly the oracle's path interfaces, in order.
  ASSERT_EQ(seen.size(), path.hops.size());
  for (std::size_t i = 0; i < seen.size(); ++i)
    EXPECT_EQ(seen[i], path.hops[i].iface);
}

TEST_F(NetworkTest, EchoReplyFromLiveHost) {
  // Find a live echo-responding host in ground truth.
  for (const auto& as : topo_.ases()) {
    if (as.type != AsType::kContent) continue;
    for (const auto& s : topo_.enumerate_subnets(as, 50)) {
      for (const auto& host : topo_.hosts_in(as, s)) {
        if (!host.echo_responder) continue;
        const auto p = topo_.path(topo_.vantages()[0], host.addr, 0, 58);
        if (p.end != PathEnd::kDelivered) continue;
        const auto r = probe(host.addr, 40);
        ASSERT_TRUE(r);
        EXPECT_EQ(r->type, Icmp6Type::kEchoReply);
        EXPECT_EQ(r->responder, host.addr);
        EXPECT_TRUE(r->probe.target_checksum_ok);
        return;
      }
    }
  }
  FAIL() << "no live host reachable";
}

TEST_F(NetworkTest, IcmpTooShortForAnEchoIdGetsNoEchoReply) {
  // An echo reply copies the request's id and seq; an ICMPv6 message too
  // short to hold them is dropped by a live echo host, not answered.
  for (const auto& as : topo_.ases()) {
    if (as.type != AsType::kContent) continue;
    for (const auto& s : topo_.enumerate_subnets(as, 50)) {
      for (const auto& host : topo_.hosts_in(as, s)) {
        if (!host.echo_responder || host.du_port_responder) continue;
        const auto p = topo_.path(topo_.vantages()[0], host.addr, 0, 58);
        if (p.end != PathEnd::kDelivered) continue;
        auto pkt = wire::encode_probe(spec_for(host.addr, 64));
        pkt.resize(wire::Ipv6Header::kSize + 4);
        pkt[4] = 0;  // payload length 4
        pkt[5] = 4;
        EXPECT_TRUE(net_.inject_view(pkt).empty());
        EXPECT_EQ(net_.stats().echo_replies, 0u);
        EXPECT_EQ(net_.stats().silent_drops, 1u);
        return;
      }
    }
  }
  FAIL() << "no live host reachable";
}

TEST_F(NetworkTest, MissingHostYieldsOneAddressUnreachableThenSilence) {
  const auto s = some_subnet(AsType::kUniversity);
  const auto& as = *topo_.as(*topo_.origin(s.base()));
  // Choose an IID that is not the gateway and not a host.
  const auto ghost = Ipv6Addr::from_halves(s.base().hi(), 0x4242424242424242ULL);
  ASSERT_FALSE(topo_.host_at(as, ghost));
  const auto p = topo_.path(topo_.vantages()[0], ghost, 0, 58);
  ASSERT_EQ(p.end, PathEnd::kDelivered);
  const auto r1 = probe(ghost, 40);
  ASSERT_TRUE(r1);
  EXPECT_EQ(r1->type, Icmp6Type::kDestUnreachable);
  EXPECT_EQ(r1->code, static_cast<std::uint8_t>(wire::UnreachCode::kAddressUnreachable));
  EXPECT_EQ(r1->responder, topo_.gateway_iface(as, s));
  // ND negative cache: the second probe is silently dropped.
  EXPECT_FALSE(probe(ghost, 40));
  EXPECT_EQ(net_.stats().silent_drops, 1u);
}

TEST_F(NetworkTest, GatewayItselfAnswersEcho) {
  const auto s = some_subnet(AsType::kUniversity);
  const auto gw = Ipv6Addr::from_halves(s.base().hi(), 1);  // ::1 convention
  const auto r = probe(gw, 40);
  ASSERT_TRUE(r);
  EXPECT_EQ(r->type, Icmp6Type::kEchoReply);
  EXPECT_EQ(r->responder, gw);
}

TEST_F(NetworkTest, UdpToLiveHostGivesPortUnreachable) {
  for (const auto& as : topo_.ases()) {
    if (as.type != AsType::kContent) continue;
    for (const auto& s : topo_.enumerate_subnets(as, 50)) {
      for (const auto& host : topo_.hosts_in(as, s)) {
        if (!host.echo_responder) continue;  // pick a vanilla host
        const auto p = topo_.path(topo_.vantages()[0], host.addr, 0, 17);
        if (p.end != PathEnd::kDelivered) continue;
        const auto r = probe(host.addr, 40, Proto::kUdp);
        ASSERT_TRUE(r);
        EXPECT_EQ(r->type, Icmp6Type::kDestUnreachable);
        EXPECT_EQ(r->code, static_cast<std::uint8_t>(wire::UnreachCode::kPortUnreachable));
        EXPECT_EQ(r->responder, host.addr);
        return;
      }
    }
  }
  FAIL() << "no live host reachable";
}

TEST_F(NetworkTest, NonexistentSubnetYieldsNoRoute) {
  // Region 0xfe never exists (beyond every AS's region count).
  const auto& as = topo_.ases().back();
  const auto target =
      Ipv6Addr::from_halves(as.prefixes[0].base().hi() | (0xfeULL << 24), 1);
  const auto r = probe(target, 40);
  ASSERT_TRUE(r);
  EXPECT_EQ(r->type, Icmp6Type::kDestUnreachable);
  EXPECT_EQ(r->code, static_cast<std::uint8_t>(wire::UnreachCode::kNoRoute));
}

TEST_F(NetworkTest, UnroutedTargetYieldsNoRouteFromCore) {
  // Pin the suppression fraction to zero: this test exercises the DU
  // generation path, not the null-route policy.
  auto np = unlimited_params();
  np.noroute_silent_frac = 0.0;
  Network net{topo_, np};
  const auto target = test_support::addr("2a10:dead::1");
  const auto replies = net.inject_view(wire::encode_probe(spec_for(target, 40)));
  ASSERT_FALSE(replies.empty());
  const auto r = wire::decode_reply(replies[0], 0);
  ASSERT_TRUE(r);
  EXPECT_EQ(r->type, Icmp6Type::kDestUnreachable);
  EXPECT_EQ(r->code, static_cast<std::uint8_t>(wire::UnreachCode::kNoRoute));
}

TEST_F(NetworkTest, TerminalUnreachablesAnswerOncePerTarget) {
  auto np = unlimited_params();
  np.noroute_silent_frac = 0.0;
  Network net{topo_, np};
  const auto target = test_support::addr("2a10:dead::1");
  std::size_t answered = 0;
  for (std::uint8_t ttl = 30; ttl < 40; ++ttl)
    answered += !net.inject_view(wire::encode_probe(spec_for(target, ttl))).empty();
  EXPECT_EQ(answered, 1u) << "repeated DUs for one target must be suppressed";
}

TEST_F(NetworkTest, NoRouteSuppressionIsDeterministicPerRouter) {
  auto np = unlimited_params();
  np.noroute_silent_frac = 1.0;  // every no-route silent
  Network net{topo_, np};
  const auto target = test_support::addr("2a10:dead::1");
  EXPECT_TRUE(net.inject_view(wire::encode_probe(spec_for(target, 40))).empty());
  EXPECT_GT(net.stats().silent_drops, 0u);
}

TEST_F(NetworkTest, MalformedAndForeignPacketsCounted) {
  EXPECT_TRUE(net_.inject_view({1, 2, 3}).empty());
  auto spec = spec_for(test_support::addr("2001:db8::1"), 4);
  spec.src = test_support::addr("9999::9");  // not a vantage
  EXPECT_TRUE(net_.inject_view(wire::encode_probe(spec)).empty());
  EXPECT_EQ(net_.stats().malformed, 2u);
}

TEST_F(NetworkTest, StatsAccumulateAndReset) {
  const auto s = some_subnet();
  (void)probe(Ipv6Addr::from_halves(s.base().hi(), 0x7777), 1);
  EXPECT_EQ(net_.stats().probes, 1u);
  EXPECT_EQ(net_.stats().time_exceeded, 1u);
  net_.reset();
  EXPECT_EQ(net_.stats().probes, 0u);
  EXPECT_EQ(net_.now_us(), 0u);
}

TEST(TokenBucket, BurstThenStarveThenRefill) {
  const TokenBucket::Budget budget{10.0, 3.0};  // 10 tokens/s, burst 3
  TokenBucket b{budget.burst};
  EXPECT_TRUE(b.try_consume(budget, 0));
  EXPECT_TRUE(b.try_consume(budget, 0));
  EXPECT_TRUE(b.try_consume(budget, 0));
  EXPECT_FALSE(b.try_consume(budget, 0)) << "burst exhausted";
  EXPECT_FALSE(b.try_consume(budget, 50'000)) << "only 0.5 tokens refilled";
  EXPECT_TRUE(b.try_consume(budget, 100'000)) << "1 token refilled after 100ms";
  EXPECT_FALSE(b.try_consume(budget, 100'000));
}

TEST(TokenBucket, CapsAtBurst) {
  const TokenBucket::Budget budget{1000.0, 5.0};
  TokenBucket b{budget.burst};
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(b.try_consume(budget, 0));
  // A long idle period must not accumulate more than `burst` tokens.
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(b.try_consume(budget, 10'000'000));
  EXPECT_FALSE(b.try_consume(budget, 10'000'000));
}

TEST(TokenBucket, DefaultIsUnlimited) {
  TokenBucket b;
  for (int i = 0; i < 100000; ++i)
    ASSERT_TRUE(b.try_consume(TokenBucket::kUnlimited, 0));
}

/// The bucket as it was when it stored its own rate and burst beside the
/// balance: the reference the state-only bucket must match bit for bit.
class StoredBudgetBucket {
 public:
  StoredBudgetBucket() = default;
  StoredBudgetBucket(double rate_per_s, double burst)
      : rate_(rate_per_s), burst_(burst), tokens_(burst) {}

  bool try_consume(std::uint64_t now_us) {
    refill(now_us);
    if (tokens_ >= 1.0) {
      tokens_ -= 1.0;
      return true;
    }
    return false;
  }
  void debit(double n, std::uint64_t now_us) {
    refill(now_us);
    tokens_ -= n;
  }
  std::uint64_t ready_at_us(std::uint64_t now_us) {
    refill(now_us);
    if (tokens_ >= 1.0) return now_us;
    const double deficit_us = (1.0 - tokens_) * 1e6 / rate_;
    return now_us + static_cast<std::uint64_t>(deficit_us) + 1;
  }

  double rate_ = 1e12;
  double burst_ = 1e12;
  double tokens_ = 1e12;
  std::uint64_t last_us_ = 0;

 private:
  void refill(std::uint64_t now_us) {
    if (now_us <= last_us_) return;
    tokens_ += rate_ * static_cast<double>(now_us - last_us_) / 1e6;
    if (tokens_ > burst_) tokens_ = burst_;
    last_us_ = now_us;
  }
};

TEST(TokenBucket, StateOnlyBucketMatchesStoredBudgetBitForBit) {
  // The bucket is exactly its balance and last refill time.
  struct State {
    double tokens;
    std::uint64_t last_us;
  };
  static_assert(sizeof(TokenBucket) == sizeof(State));
  const auto same_state = [](const TokenBucket& b, const StoredBudgetBucket& ref) {
    const auto s = std::bit_cast<State>(b);
    return std::bit_cast<std::uint64_t>(s.tokens) ==
               std::bit_cast<std::uint64_t>(ref.tokens_) &&
           s.last_us == ref.last_us_;
  };
  // Fixed budgets (the unlimited default, bursts below 1, the reactor's
  // burst-1 throttle, the network's aggressive and base routers, a halved
  // rate) and seeded ones drawn like the network's.
  std::vector<std::optional<TokenBucket::Budget>> budgets = {
      std::nullopt, TokenBucket::Budget{10.0, 0.25}, TokenBucket::Budget{0.5, 0.75},
      TokenBucket::Budget{800.0, 1.0}, TokenBucket::Budget{25.0, 8.0},
      TokenBucket::Budget{150.0 * 0.5, 4.0}, TokenBucket::Budget{1e6, 3.0}};
  Rng rng{splitmix64(0xb0c7)};
  for (int i = 0; i < 64; ++i) {
    const double rate = 150.0 + static_cast<double>(rng() % 1000) / 1000.0 * 500.0;
    const double burst = static_cast<double>(rng() % 16'000) / 1000.0;
    const double scale = i % 4 == 0 ? 0.5 : 1.0;
    budgets.push_back(TokenBucket::Budget{rate * scale, burst});
  }
  for (const auto& budget : budgets) {
    const auto b = budget.value_or(TokenBucket::kUnlimited);
    TokenBucket bucket = budget ? TokenBucket{b.burst} : TokenBucket{};
    StoredBudgetBucket ref = budget ? StoredBudgetBucket{b.rate_per_s, b.burst}
                                    : StoredBudgetBucket{};
    std::uint64_t now_us = 0;
    for (int op = 0; op < 4000; ++op) {
      const auto r = rng();
      if (r % 8 == 0)
        now_us -= std::min<std::uint64_t>(now_us, (r >> 8) % 50'000);  // backwards
      else
        now_us += (r >> 8) % 20'000;
      switch ((r >> 4) % 3) {
        case 0:
          ASSERT_EQ(bucket.try_consume(b, now_us), ref.try_consume(now_us));
          break;
        case 1: {
          const double n = static_cast<double>((r >> 32) % 9) / 2.0;
          bucket.debit(b, n, now_us);
          ref.debit(n, now_us);
          break;
        }
        default:
          ASSERT_EQ(bucket.ready_at_us(b, now_us), ref.ready_at_us(now_us));
          break;
      }
      ASSERT_TRUE(same_state(bucket, ref))
          << "rate " << b.rate_per_s << " burst " << b.burst << " op " << op;
    }
  }
}

TEST_F(NetworkTest, RateLimitingStarvesBackToBackProbes) {
  // With real (limited) buckets and no clock advancement, a burst to the
  // same first hop must stop answering once the bucket drains.
  Network limited{topo_, NetworkParams{}};
  const auto s = some_subnet();
  unsigned answered = 0;
  for (int i = 0; i < 64; ++i) {
    wire::ProbeSpec sp;
    sp.src = topo_.vantages()[0].src;
    sp.target = Ipv6Addr::from_halves(s.base().hi(), 0x100 + i);
    sp.ttl = 1;
    answered += !limited.inject_view(wire::encode_probe(sp)).empty();
  }
  EXPECT_LT(answered, 30u);
  EXPECT_GT(limited.stats().rate_limited, 30u);
}

TEST_F(NetworkTest, PacedProbesSurviveRateLimiting) {
  // The same 64 probes spread at 100pps of virtual time all get answers.
  Network limited{topo_, NetworkParams{}};
  const auto s = some_subnet();
  unsigned answered = 0;
  for (int i = 0; i < 64; ++i) {
    wire::ProbeSpec sp;
    sp.src = topo_.vantages()[0].src;
    sp.target = Ipv6Addr::from_halves(s.base().hi(), 0x100 + i);
    sp.ttl = 1;
    answered += !limited.inject_view(wire::encode_probe(sp)).empty();
    limited.advance_us(10'000);
  }
  EXPECT_GE(answered, 60u);
}

TEST_F(NetworkTest, ChecksumTamperingCanMovePaths) {
  // Corrupting the fudge changes the ICMPv6 checksum, which feeds the ECMP
  // flow hash: across many targets some path must change. This is exactly
  // the instability yarrp6's fudge field exists to prevent.
  unsigned moved = 0, compared = 0;
  for (const auto& as : topo_.ases()) {
    const auto target = Ipv6Addr::from_halves(as.prefixes[0].base().hi(), 0x31);
    for (std::uint8_t ttl = 1; ttl <= 12; ++ttl) {
      auto pkt = wire::encode_probe(spec_for(target, ttl));
      // Copied out: the second inject recycles the reply pool.
      const auto a_view = net_.inject_view(pkt);
      const std::vector<Packet> a(a_view.begin(), a_view.end());
      pkt[pkt.size() - 1] ^= 0x3c;  // tamper fudge
      pkt[pkt.size() - 2] ^= 0x11;
      wire::finalize_transport_checksum(pkt);
      const auto b = net_.inject_view(pkt);
      if (a.empty() || b.empty()) continue;
      const auto ra = wire::decode_reply(a[0], 0), rb = wire::decode_reply(b[0], 0);
      if (!ra || !rb) continue;
      ++compared;
      moved += ra->responder != rb->responder;
    }
  }
  EXPECT_GT(compared, 100u);
  EXPECT_GT(moved, 0u) << "ECMP never keyed on the checksum";
}

TEST_F(NetworkTest, ForcedSilentRouterNeverAnswers) {
  const auto s = some_subnet();
  const auto target = Ipv6Addr::from_halves(s.base().hi(), 0x999);
  const auto path = topo_.path(topo_.vantages()[0], target, 0, 58);
  ASSERT_GE(path.hops.size(), 3u);

  NetworkParams np = unlimited_params();
  np.silent_routers.insert(path.hops[1].router_id);  // silence hop 2
  Network net{topo_, np};
  EXPECT_TRUE(net.router_silent(path.hops[1].router_id));
  EXPECT_FALSE(net.router_silent(path.hops[0].router_id));

  const auto drops_before = net.stats().silent_drops;
  for (std::uint8_t ttl = 1; ttl <= path.hops.size(); ++ttl) {
    const auto replies =
        net.inject_view(wire::encode_probe(spec_for(target, ttl)));
    if (ttl == 2) {
      EXPECT_TRUE(replies.empty()) << "silent hop must not answer";
    } else {
      EXPECT_FALSE(replies.empty()) << "hop " << int(ttl);
    }
  }
  EXPECT_EQ(net.stats().silent_drops, drops_before + 1);
  // Silent routers are never learned as interfaces.
  EXPECT_FALSE(net.learned_interfaces().contains(path.hops[1].iface));
  EXPECT_TRUE(net.learned_interfaces().contains(path.hops[0].iface));
}

TEST_F(NetworkTest, SilentFractionIsDeterministicAndProportional) {
  NetworkParams np = unlimited_params();
  np.silent_router_frac = 0.2;
  Network a{topo_, np}, b{topo_, np};
  unsigned silent = 0;
  const unsigned n = 10000;
  for (std::uint64_t id = 0; id < n; ++id) {
    EXPECT_EQ(a.router_silent(id), b.router_silent(id));
    silent += a.router_silent(id);
  }
  EXPECT_NEAR(static_cast<double>(silent) / n, 0.2, 0.02);
  // Zero fraction (the default) silences nothing.
  Network c{topo_, unlimited_params()};
  for (std::uint64_t id = 0; id < 100; ++id) EXPECT_FALSE(c.router_silent(id));
}

TEST_F(NetworkTest, SilentHopsLeaveGapsButDeeperHopsStillAnswer) {
  // The mechanism behind the paper's Table 6: a silent hop truncates fill
  // chains, but direct probing of deeper TTLs still discovers the far side.
  const auto s = some_subnet();
  const auto target = Ipv6Addr::from_halves(s.base().hi(), 0x999);
  const auto path = topo_.path(topo_.vantages()[0], target, 0, 58);
  ASSERT_GE(path.hops.size(), 4u);

  NetworkParams np = unlimited_params();
  np.silent_routers.insert(path.hops[2].router_id);
  Network net{topo_, np};
  std::size_t answered = 0;
  for (std::uint8_t ttl = 1; ttl <= path.hops.size(); ++ttl)
    answered += !net.inject_view(wire::encode_probe(spec_for(target, ttl))).empty();
  EXPECT_EQ(answered, path.hops.size() - 1);
}

TEST_F(NetworkTest, RateLimitedTimeExceededStillTeachesTheInterface) {
  // What teaches the network a router interface is the hop limit expiring
  // there, not the Time Exceeded getting out: a reply the router's bucket
  // suppresses still makes the interface answer echoes afterwards. Every
  // golden assumes this order (inject_impl records before consume_token).
  auto np = NetworkParams{};
  np.noroute_silent_frac = 0.0;  // the core answers every unrouted target
  auto dead = [](std::uint64_t iid) {
    return Ipv6Addr::from_halves(0x2a10deadULL << 32, iid);
  };
  auto first_reply = [&](Network& net, const Ipv6Addr& target, std::uint8_t ttl) {
    const auto replies = net.inject_view(wire::encode_probe(spec_for(target, ttl)));
    return replies.empty() ? std::nullopt : wire::decode_reply(replies[0], 0);
  };

  // Find the core router that answers "no route" for the unrouted space,
  // and the hop limit at which a probe to dead(1) expires there.
  auto discovery_params = np;
  discovery_params.unlimited = true;
  Network discovery{topo_, discovery_params};
  const auto du = first_reply(discovery, dead(1), 40);
  ASSERT_TRUE(du);
  ASSERT_EQ(du->code, static_cast<std::uint8_t>(wire::UnreachCode::kNoRoute));
  const Ipv6Addr iface = du->responder;
  std::uint8_t expire_ttl = 0;
  for (std::uint8_t ttl = 1; ttl < 40 && expire_ttl == 0; ++ttl) {
    const auto r = first_reply(discovery, dead(1), ttl);
    if (r && r->type == Icmp6Type::kTimeExceeded && r->responder == iface)
      expire_ttl = ttl;
  }
  ASSERT_NE(expire_ttl, 0) << "the no-route router never expired a probe";

  // Before anything expires there, the interface does not answer echoes.
  {
    Network fresh{topo_, np};
    const auto r = first_reply(fresh, iface, 64);
    EXPECT_FALSE(r && r->type == Icmp6Type::kEchoReply);
  }

  // Drain that router's bucket with no-route unreachables for other
  // unrouted targets (the clock never moves). Unreachables teach nothing.
  Network net{topo_, np};
  for (std::uint64_t i = 0; i < 64; ++i) (void)first_reply(net, dead(0x1000 + i), 40);
  ASSERT_GT(net.stats().rate_limited, 0u);
  ASSERT_FALSE(net.learned_interfaces().contains(iface));

  // The expiry at the interface is rate-limited: no Time Exceeded leaves.
  const auto limited_before = net.stats().rate_limited;
  EXPECT_FALSE(first_reply(net, dead(1), expire_ttl));
  EXPECT_EQ(net.stats().rate_limited, limited_before + 1);
  EXPECT_EQ(net.stats().time_exceeded, 0u);

  // ...and yet the interface is learned, and answers an echo.
  EXPECT_TRUE(net.learned_interfaces().contains(iface));
  const auto echo = first_reply(net, iface, 64);
  ASSERT_TRUE(echo);
  EXPECT_EQ(echo->type, Icmp6Type::kEchoReply);
  EXPECT_EQ(echo->responder, iface);
}

TEST_F(NetworkTest, ResetClearsLearnedInterfacesAndFragmentCounters) {
  // Regression: reset() claimed to clear "all dynamic state" but left the
  // learned-interface map and the per-router fragment-Identification
  // counters behind, leaking them into the next campaign.
  const auto s = some_subnet();
  const auto target = Ipv6Addr::from_halves(s.base().hi(), 0x999);
  ASSERT_TRUE(probe(target, 2));
  ASSERT_FALSE(net_.learned_interfaces().empty());
  const auto iface = net_.learned_interfaces().begin()->first;

  // Oversized echo to the learned interface: the reply fragments, and the
  // fragment headers embed the router's Identification counter.
  auto big_echo = [&] {
    const auto replies =
        net_.inject_view(test_support::make_big_echo(topo_.vantages()[0].src, iface));
    return std::vector<Packet>(replies.begin(), replies.end());
  };
  const auto first = big_echo();
  ASSERT_GT(first.size(), 1u) << "oversized echo must fragment";

  net_.reset();
  EXPECT_TRUE(net_.learned_interfaces().empty())
      << "reset() must forget learned interfaces";

  // Re-learn and repeat: a truly reset network reproduces the first
  // campaign byte-for-byte, fragment Identifications included.
  ASSERT_TRUE(probe(target, 2));
  EXPECT_EQ(big_echo(), first);
}

}  // namespace
}  // namespace beholder6::simnet
