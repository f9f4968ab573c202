// The reactor's memory follows its live tenants. A settled campaign keeps
// only a small shell (handle state, spec, frozen stats), not the
// Network replica and Pacer it ran on; a live tenant whose routes miss the
// shared snapshot (its source names no warm targets, or a re-convergence
// bumped its cells) pays for the routes it resolves, not for a large first
// route table; a tenant's token buckets hold balances, not budgets, in
// hash tables that stay small late in its life; and a
// yarrp6 source outside neighborhood mode allocates no per-TTL tables. The
// check replaces the global operator new/delete with versions that count
// live bytes, which is why it is a test binary of its own.
#include <gtest/gtest.h>
#include <malloc.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <span>
#include <vector>

#include "campaign/reactor.hpp"
#include "prober/yarrp6.hpp"
#include "support/drain.hpp"
#include "support/mapped.hpp"

namespace {
std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::int64_t> g_live_bytes{0};

void* counted(void* p) {
  if (p == nullptr) throw std::bad_alloc{};
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_live_bytes.fetch_add(static_cast<std::int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  return p;
}

void counted_free(void* p) noexcept {
  if (p == nullptr) return;
  g_live_bytes.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  std::free(p);
}
}  // namespace

// GCC pairs the replaced operator new with the free() it sees behind it
// and warns about the mismatch; malloc-backed new with free-backed delete
// is the point of the hook.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t n) { return counted(std::malloc(n)); }
void* operator new[](std::size_t n) { return operator new(n); }
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }

// Over-aligned forms: the route cache's alignas(64) slots allocate
// through these. Tables of 1 MB or more are mappings of their own
// (netbase::HugePageAllocator); live_bytes() adds
// test_support::mapped_bytes().
void* operator new(std::size_t n, std::align_val_t al) {
  const auto a = static_cast<std::size_t>(al);
  return counted(std::aligned_alloc(a, (n + a - 1) & ~(a - 1)));
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return operator new(n, al);
}
void operator delete(void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::align_val_t) noexcept {
  counted_free(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}

namespace beholder6::campaign {
namespace {

std::int64_t live_bytes() {
  return g_live_bytes.load(std::memory_order_relaxed) +
         static_cast<std::int64_t>(test_support::mapped_bytes());
}

/// A yarrp6 source that names no warm targets: every route its tenant
/// needs misses the reactor's shared snapshot and is resolved into the
/// tenant replica's private route cache.
class ColdSource final : public ProbeSource {
 public:
  ColdSource(const prober::Yarrp6Config& cfg, std::span<const Ipv6Addr> targets)
      : inner_(cfg, targets) {}
  void begin(std::uint64_t now_us) override { inner_.begin(now_us); }
  Poll next(std::uint64_t now_us) override { return inner_.next(now_us); }
  void on_reply(const Probe& probe, const wire::DecodedReply& reply,
                std::uint64_t now_us) override {
    inner_.on_reply(probe, reply, now_us);
  }
  void on_probe_done(const Probe& probe, bool answered,
                     std::uint64_t now_us) override {
    inner_.on_probe_done(probe, answered, now_us);
  }
  void finish(ProbeStats& stats) const override { inner_.finish(stats); }

 private:
  prober::Yarrp6Source inner_;
};

class ReactorMemoryTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kCampaigns = 1000;
  static constexpr std::size_t kTargets = 4;

  ReactorMemoryTest() : topo_(simnet::TopologyParams{}) {
    std::vector<Ipv6Addr> pool;
    for (const auto& as : topo_.ases())
      for (const auto& s : topo_.enumerate_subnets(as, 6))
        pool.push_back(s.base() | Ipv6Addr::from_halves(0, 0x1234));
    for (std::size_t i = 0; i < kCampaigns * kTargets; ++i)
      targets_.push_back(pool[(i * 7919) % pool.size()]);
  }

  prober::Yarrp6Config config(std::size_t i) const {
    prober::Yarrp6Config cfg;
    cfg.src = topo_.vantages()[i % topo_.vantages().size()].src;
    cfg.pps = 1000 + 250 * static_cast<double>(i % 7);
    cfg.max_ttl = 16;
    cfg.instance = static_cast<std::uint8_t>(1 + i % 200);
    cfg.permutation_key = 0x59a9 + i;
    return cfg;
  }

  /// One round of kCampaigns four-target yarrp6 campaigns, submitted and
  /// drained; returns the live bytes it left behind per campaign. The
  /// sources exist before the count starts, so what they allocate in
  /// begin() counts as retained too.
  double retained_per_campaign(CampaignReactor& reactor) {
    std::vector<std::unique_ptr<prober::Yarrp6Source>> sources;
    std::vector<CampaignSpec> specs;
    for (std::size_t i = 0; i < kCampaigns; ++i) {
      const auto cfg = config(i);
      sources.push_back(std::make_unique<prober::Yarrp6Source>(
          cfg, std::span<const Ipv6Addr>{targets_.data() + i * kTargets,
                                         kTargets}));
      CampaignSpec spec;
      spec.tenant = 1 + i;
      spec.source = sources.back().get();
      spec.endpoint = cfg.endpoint();
      spec.pacing = cfg.pacing();
      spec.rate_limit_pps = i % 4 == 3 ? 800.0 : 0.0;
      specs.push_back(spec);
    }
    handles_.clear();
    handles_.reserve(kCampaigns);
    const auto before = live_bytes();
    for (const auto& spec : specs) {
      const auto adm = reactor.submit(spec);
      EXPECT_TRUE(adm.admitted());
      handles_.push_back(adm.handle);
    }
    EXPECT_GT(test_support::drain(reactor), 0u);
    const auto after = live_bytes();
    for (const auto& h : handles_)
      EXPECT_EQ(reactor.state(h), CampaignState::kFinished);
    return static_cast<double>(after - before) / kCampaigns;
  }

  /// Submits kCampaigns four-target yarrp6 campaigns (64 probes each) and
  /// runs `steps` slots per campaign, so every tenant has resolved routes
  /// and none has finished; returns the live bytes per campaign at that
  /// point. `cold` sources name no warm targets.
  double live_per_campaign(CampaignReactor& reactor, bool cold, std::size_t steps = 4) {
    std::vector<std::unique_ptr<ProbeSource>> sources;
    std::vector<CampaignSpec> specs;
    for (std::size_t i = 0; i < kCampaigns; ++i) {
      const auto cfg = config(i);
      const std::span<const Ipv6Addr> targets{targets_.data() + i * kTargets,
                                              kTargets};
      if (cold)
        sources.push_back(std::make_unique<ColdSource>(cfg, targets));
      else
        sources.push_back(std::make_unique<prober::Yarrp6Source>(cfg, targets));
      CampaignSpec spec;
      spec.tenant = 1 + i;
      spec.source = sources.back().get();
      spec.endpoint = cfg.endpoint();
      spec.pacing = cfg.pacing();
      specs.push_back(spec);
    }
    handles_.clear();
    const auto before = live_bytes();
    for (const auto& spec : specs) handles_.push_back(reactor.submit(spec).handle);
    for (std::size_t i = 0; i < kCampaigns * steps; ++i) EXPECT_TRUE(reactor.step());
    const auto during = live_bytes();
    for (const auto& h : handles_)
      EXPECT_EQ(reactor.state(h), CampaignState::kRunning) << "tenant " << h.tenant;
    (void)test_support::drain(reactor);
    return static_cast<double>(during - before) / kCampaigns;
  }

  simnet::Topology topo_;
  std::vector<Ipv6Addr> targets_;
  std::vector<CampaignHandle> handles_;
};

TEST_F(ReactorMemoryTest, SettledCampaignsRetainOnlyTheirShells) {
  // A settled campaign keeps its Campaign shell and its slot in the
  // reactor's campaign table: 224 bytes per campaign here, the table's
  // growth in the second round included. Kept replicas and Pacers would
  // leave several KiB per campaign, and yarrp6's per-TTL tables outside
  // neighborhood mode about 1.1 KiB more.
  CampaignReactor reactor{topo_, simnet::NetworkParams{},
                          {.collect_merged = false}};
  // The first round grows the shared route snapshot, the heap and the
  // tenant table; the second round (its tenant ids free again once the
  // first retired) then retains only what its settled campaigns hold.
  (void)retained_per_campaign(reactor);
  const double retained = retained_per_campaign(reactor);
  std::printf("retained bytes per settled campaign: %.0f\n", retained);
  EXPECT_LT(retained, 768.0);
  std::uint64_t probes = 0;
  for (const auto& h : handles_) probes += reactor.stats(h)->probes_sent;
  EXPECT_EQ(probes, kCampaigns * kTargets * 16);
}

TEST_F(ReactorMemoryTest, TenantsThatMissTheSnapshotStaySmallWhileLive) {
  // Warm tenants resolve every route out of the shared snapshot; cold ones
  // resolve theirs into a private route cache, whose first table holds 16
  // slots (1 KiB). A cold tenant holds about 3 KiB more than a warm one
  // (the table, the interned hop chains and the path scratch); with a
  // first table of 1,024 slots (64 KiB) it held about 66 KiB more.
  CampaignReactor warm{topo_, simnet::NetworkParams{}, {.collect_merged = false}};
  (void)live_per_campaign(warm, false);  // grows the snapshot for the second round
  const double warm_live = live_per_campaign(warm, false);
  CampaignReactor cold{topo_, simnet::NetworkParams{}, {.collect_merged = false}};
  const double cold_live = live_per_campaign(cold, true);
  // An ECMP re-convergence over every cell at virtual time 0 applies
  // before each tenant's first probe. The snapshot holds the pre-event
  // paths, so these tenants skip it for their bumped cells and resolve
  // them privately, although their sources name their warm targets.
  auto schedule = std::make_shared<simnet::DynamicsSchedule>();
  schedule->add({.at_us = 0, .kind = simnet::DynamicsKind::kEcmpReconverge});
  simnet::NetworkParams params;
  params.dynamics = schedule;
  CampaignReactor reconverged{topo_, params, {.collect_merged = false}};
  (void)live_per_campaign(reconverged, false);
  const double reconverged_live = live_per_campaign(reconverged, false);
  std::printf("live bytes per tenant: warm %.0f, cold %.0f, reconverged %.0f\n",
              warm_live, cold_live, reconverged_live);
  EXPECT_LT(cold_live - warm_live, 8192.0);
  EXPECT_GT(reconverged_live - warm_live, 1024.0) << "the snapshot served them";
  EXPECT_LT(reconverged_live - warm_live, 8192.0);
  // A warm tenant's replica holds a 16-slot token-bucket table by now. Its
  // entries are a router id and a balance, 24 bytes; they were 40 while
  // each bucket stored its rate and burst too. Measured: 2,320 live bytes
  // per warm tenant; 2,565 while each table kept its entries and slot
  // states in two arrays, and 2,829 before that with the 40-byte entries.
  EXPECT_LT(warm_live, 2700.0);
}

TEST_F(ReactorMemoryTest, TenantTablesStaySmallLateInLife) {
  // After 40 of its 64 probes (no tenant has finished yet) a tenant's
  // token-bucket and learned-interface tables hold most of the routers on
  // its paths. Each table is one block, entries then one control byte per
  // slot, that grows at a load of 7/8, so up to 28 entries stay in 32
  // slots. Measured live bytes per tenant: 3,497; 3,902 with a 3/4
  // ceiling; 3,739 with separate entry and state arrays; 4,146 with both.
  CampaignReactor reactor{topo_, simnet::NetworkParams{}, {.collect_merged = false}};
  (void)live_per_campaign(reactor, false, 40);  // grows the snapshot for the second round
  const double late_live = live_per_campaign(reactor, false, 40);
  std::printf("live bytes per tenant after 40 steps: %.0f\n", late_live);
  EXPECT_LT(late_live, 3600.0);
}

TEST_F(ReactorMemoryTest, Yarrp6BeginAllocatesTablesOnlyForNeighborhood) {
  for (const bool neighborhood : {false, true}) {
    auto cfg = config(0);
    cfg.neighborhood = neighborhood;
    prober::Yarrp6Source source{cfg, {targets_.data(), kTargets}};
    const auto before = g_allocs.load(std::memory_order_relaxed);
    source.begin(0);
    const auto allocations = g_allocs.load(std::memory_order_relaxed) - before;
    if (neighborhood)
      EXPECT_GT(allocations, 0u);
    else
      EXPECT_EQ(allocations, 0u) << "per-TTL tables outside neighborhood mode";
  }
}

}  // namespace
}  // namespace beholder6::campaign
