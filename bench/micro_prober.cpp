// micro_prober — google-benchmark microbenchmarks of the hot path: the
// Feistel permutation, probe encode/decode, reply decode, checksums, radix
// trie LPM, and the end-to-end probe → simnet → reply cycle. These bound
// the achievable virtual probing rate (the real yarrp runs at >100kpps).
#include <benchmark/benchmark.h>

#include "campaign/runner.hpp"
#include "netbase/checksum.hpp"
#include "netbase/permutation.hpp"
#include "netbase/radix_trie.hpp"
#include "prober/yarrp6.hpp"
#include "simnet/network.hpp"
#include "wire/probe.hpp"

using namespace beholder6;

namespace {

void BM_PermutationMap(benchmark::State& state) {
  Permutation perm{16ULL * 1000000, 0xfeed};
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(perm.map(i));
    i = (i + 1) % perm.size();
  }
}
BENCHMARK(BM_PermutationMap);

void BM_EncodeProbe(benchmark::State& state) {
  wire::ProbeSpec spec;
  spec.src = Ipv6Addr::must_parse("2001:db8::1");
  spec.target = Ipv6Addr::must_parse("2001:db8:1:2:1234:5678:1234:5678");
  spec.ttl = 9;
  for (auto _ : state) {
    spec.elapsed_us++;
    benchmark::DoNotOptimize(wire::encode_probe(spec));
  }
}
BENCHMARK(BM_EncodeProbe);

void BM_DecodeReply(benchmark::State& state) {
  wire::ProbeSpec spec;
  spec.src = Ipv6Addr::must_parse("2001:db8::1");
  spec.target = Ipv6Addr::must_parse("2001:db8:1:2:1234:5678:1234:5678");
  spec.ttl = 9;
  auto quoted = wire::encode_probe(spec);
  std::vector<std::uint8_t> reply;
  wire::Ipv6Header ip;
  ip.next_header = 58;
  ip.src = Ipv6Addr::must_parse("2001:db8:42::1");
  ip.dst = spec.src;
  ip.payload_length = static_cast<std::uint16_t>(8 + quoted.size());
  ip.encode(reply);
  wire::Icmp6Header icmp;
  icmp.type = wire::Icmp6Type::kTimeExceeded;
  icmp.encode(reply);
  reply.insert(reply.end(), quoted.begin(), quoted.end());
  wire::finalize_transport_checksum(reply);
  for (auto _ : state) benchmark::DoNotOptimize(wire::decode_reply(reply, 1));
}
BENCHMARK(BM_DecodeReply);

void BM_PseudoHeaderChecksum(benchmark::State& state) {
  const auto src = Ipv6Addr::must_parse("2001:db8::1");
  const auto dst = Ipv6Addr::must_parse("2001:db8::2");
  std::vector<std::uint8_t> payload(20, 0xab);
  for (auto _ : state)
    benchmark::DoNotOptimize(pseudo_header_checksum(src, dst, 58, payload));
}
BENCHMARK(BM_PseudoHeaderChecksum);

void BM_TrieLpm(benchmark::State& state) {
  RadixTrie<int> trie;
  std::uint64_t x = 1;
  for (int i = 0; i < 10000; ++i) {
    x = splitmix64(x);
    trie.insert(Prefix{Ipv6Addr::from_halves(x, 0), 32 + unsigned(x % 17)}, i);
  }
  std::uint64_t q = 7;
  for (auto _ : state) {
    q = splitmix64(q);
    benchmark::DoNotOptimize(trie.lpm(Ipv6Addr::from_halves(q, q)));
  }
}
BENCHMARK(BM_TrieLpm);

void BM_EndToEndProbe(benchmark::State& state) {
  static simnet::Topology topo{simnet::TopologyParams{}};
  simnet::NetworkParams np;
  np.unlimited = true;
  simnet::Network net{topo, np};
  wire::ProbeSpec spec;
  spec.src = topo.vantages()[0].src;
  std::uint64_t x = 3;
  for (auto _ : state) {
    x = splitmix64(x);
    const auto& as = topo.ases()[x % topo.ases().size()];
    spec.target = Ipv6Addr::from_halves(as.prefixes[0].base().hi() | (x & 0xffffff), 1);
    spec.ttl = 1 + static_cast<std::uint8_t>(x % 16);
    spec.elapsed_us = static_cast<std::uint32_t>(net.now_us());
    benchmark::DoNotOptimize(net.inject_view(wire::encode_probe(spec)));
    net.advance_us(1);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EndToEndProbe);

void BM_CampaignEngine(benchmark::State& state) {
  // Full engine cycle: permutation walk -> encode -> inject -> decode ->
  // dispatch -> reschedule; bounds the virtual probing rate of the stack.
  static simnet::Topology topo{simnet::TopologyParams{}};
  simnet::NetworkParams np;
  np.unlimited = true;
  std::vector<Ipv6Addr> targets;
  for (const auto& as : topo.ases()) {
    for (const auto& s : topo.enumerate_subnets(as, 4))
      targets.push_back(s.base() | Ipv6Addr::from_halves(0, 1));
    if (targets.size() >= 64) break;
  }
  prober::Yarrp6Config cfg;
  cfg.src = topo.vantages()[0].src;
  cfg.pps = 1e6;
  cfg.max_ttl = 8;
  for (auto _ : state) {
    simnet::Network net{topo, np};
    prober::Yarrp6Source source{cfg, targets};
    benchmark::DoNotOptimize(campaign::CampaignRunner::run_one(
        net, source, cfg.endpoint(), cfg.pacing()));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(targets.size() * cfg.max_ttl));
}
BENCHMARK(BM_CampaignEngine);

}  // namespace

BENCHMARK_MAIN();
