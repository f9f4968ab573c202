// Zero-allocation steady state of the injection path. A Network warmed by
// one pass of a probe set (route cache, token buckets, learned interfaces,
// negative caches, reply pool) must answer an identical second pass
// through inject_view without touching the heap or mapping a page. The
// check replaces the global operator new/delete with counting versions,
// which is why it is a test binary of its own. tools/check_noalloc.py
// proves the same property statically over the call graph; this test
// proves it at runtime.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "campaign/runner.hpp"
#include "prober/yarrp6.hpp"
#include "seeds/sources.hpp"
#include "simnet/network.hpp"
#include "support/mapped.hpp"
#include "target/synthesis.hpp"
#include "target/transform.hpp"

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

// GCC pairs the replaced operator new with the free() it sees behind it
// and warns about the mismatch; malloc-backed new with free-backed delete
// is the point of the hook.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n) { return operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

// Over-aligned forms: the route cache's alignas(64) slots allocate
// through these. Tables of 1 MB or more are mappings of their own
// (netbase::HugePageAllocator) and are counted by test_support::mappings().
void* operator new(std::size_t n, std::align_val_t al) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(al);
  if (void* p = std::aligned_alloc(a, (n + a - 1) & ~(a - 1))) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return operator new(n, al);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace beholder6::simnet {
namespace {

TEST(SteadyStateAlloc, WarmInjectViewSweepAllocatesNothing) {
  const Topology topo{TopologyParams{20180514}};
  seeds::SeedScale scale;
  scale.scale = 0.15;
  // One target in every routed prefix, then CDN client /64s: 4,000 z64
  // targets spread over the whole topology.
  std::vector<Ipv6Addr> targets;
  for (const auto& list : {seeds::make_caida(topo, scale, 20180514),
                           seeds::make_cdn(topo, scale, 256, 20180514)}) {
    const auto set =
        target::synthesize_fixediid(target::transform_zn(list, 64));
    targets.insert(targets.end(), set.addrs.begin(), set.addrs.end());
  }
  ASSERT_GE(targets.size(), 4000u);
  targets.resize(4000);

  prober::Yarrp6Config cfg;
  cfg.src = topo.vantages()[0].src;
  const auto endpoint = cfg.endpoint();
  std::vector<Packet> probes;
  for (const auto& target : targets)
    for (std::uint8_t ttl = 1; ttl <= 16; ++ttl)
      probes.push_back(wire::encode_probe(campaign::probe_spec_at(
          endpoint, target, ttl, std::uint64_t{ttl} * 1000)));

  Network net{topo};
  std::uint64_t replies = 0;
  auto sweep = [&] {
    for (const auto& p : probes) {
      replies += net.inject_view(p).size();
      net.advance_us(1000);
    }
  };
  sweep();  // warm-up: every cache, pool and table reaches steady state
  const auto before = g_allocs.load(std::memory_order_relaxed);
  const auto mappings_before = test_support::mappings();
  sweep();
  const auto allocations = g_allocs.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(allocations, 0u) << "over " << probes.size() << " warm probes";
  EXPECT_EQ(test_support::mappings(), mappings_before)
      << "a table of 1 MB or more grew during the warm sweep";
  EXPECT_GT(replies, 0u);
}

}  // namespace
}  // namespace beholder6::simnet
