// Property suite for the CampaignReactor's fair-share scheduling contract,
// driven by fixed netbase::Rng seeds: no tenant is ever starved (each
// tenant's virtual-time progress under load is exactly its solo progress),
// fairness holds under a pathological elephant-and-mice mix, admission
// rejections are a deterministic function of the submitted specs, and
// scheduling is invariant to submission-order permutations of
// simultaneous submits.
#include "campaign/reactor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <numeric>
#include <utility>
#include <vector>

#include "netbase/rng.hpp"
#include "prober/yarrp6.hpp"
#include "support/drain.hpp"

namespace beholder6::campaign {
namespace {

/// The fixed seed battery. Every property below must hold at each seed;
/// seeds only vary the workload shape, never the contracts.
constexpr std::array<std::uint64_t, 8> kSeeds{0x9e3779b97f4a7c15ULL,
                                              0xbf58476d1ce4e5b9ULL,
                                              0x94d049bb133111ebULL,
                                              0x2545f4914f6cdd1dULL,
                                              1,
                                              2,
                                              3,
                                              0xdeadbeefULL};

struct TenantShape {
  std::uint64_t tenant = 0;
  std::size_t n_targets = 0;
  double pps = 0;
  std::uint8_t max_ttl = 0;
  double rate_limit_pps = 0;  // 0 = unthrottled
};

class ReactorPropertyTest : public ::testing::Test {
 protected:
  ReactorPropertyTest() : topo_(simnet::TopologyParams{}) {}

  std::vector<Ipv6Addr> targets(std::size_t n, std::size_t skip) {
    std::vector<Ipv6Addr> out;
    for (const auto& as : topo_.ases()) {
      for (const auto& s : topo_.enumerate_subnets(as, 6)) {
        if (skip > 0) {
          --skip;
          continue;
        }
        out.push_back(s.base() | Ipv6Addr::from_halves(0, 0x1234));
      }
      if (out.size() >= n) break;
    }
    out.resize(std::min(out.size(), n));
    return out;
  }

  /// Build the spec a shape describes. Sources are deterministic in their
  /// config and target list, so calling this twice with the same shape
  /// yields behaviourally identical campaigns — the replay/permutation
  /// tests depend on that.
  CampaignSpec make_spec(const TenantShape& shape) {
    target_lists_.push_back(std::make_unique<std::vector<Ipv6Addr>>(
        targets(shape.n_targets, 3 * static_cast<std::size_t>(shape.tenant % 101))));
    prober::Yarrp6Config cfg;
    cfg.src = topo_.vantages()[shape.tenant % topo_.vantages().size()].src;
    cfg.pps = shape.pps;
    cfg.max_ttl = shape.max_ttl;
    cfg.fill_mode = true;
    cfg.instance = static_cast<std::uint8_t>(1 + shape.tenant % 200);
    sources_.push_back(
        std::make_unique<prober::Yarrp6Source>(cfg, *target_lists_.back()));
    CampaignSpec spec;
    spec.tenant = shape.tenant;
    spec.source = sources_.back().get();
    spec.endpoint = cfg.endpoint();
    spec.pacing = cfg.pacing();
    spec.rate_limit_pps = shape.rate_limit_pps;
    return spec;
  }

  /// A random but seed-determined tenant population.
  std::vector<TenantShape> random_shapes(Rng& rng, std::size_t n) {
    std::vector<TenantShape> shapes;
    for (std::size_t i = 0; i < n; ++i) {
      TenantShape s;
      s.tenant = 1 + rng.below(500);
      // Distinct tenant ids — duplicates are an *admission* property,
      // exercised separately.
      while (std::any_of(shapes.begin(), shapes.end(),
                         [&](const TenantShape& o) { return o.tenant == s.tenant; }))
        s.tenant = 1 + rng.below(500);
      s.n_targets = 3 + rng.below(6);
      s.pps = 1000 + 500 * static_cast<double>(rng.below(6));
      s.max_ttl = static_cast<std::uint8_t>(4 + rng.below(3));
      if (rng.below(3) == 0) s.rate_limit_pps = 700 + 100 * static_cast<double>(rng.below(5));
      shapes.push_back(s);
    }
    return shapes;
  }

  static std::vector<ReactorReply> tenant_records(
      const std::vector<ReactorReply>& merged, std::uint64_t tenant) {
    std::vector<ReactorReply> out;
    for (const auto& r : merged)
      if (r.tenant == tenant) out.push_back(r);
    return out;
  }

  static void expect_identical(const std::vector<ReactorReply>& a,
                               const std::vector<ReactorReply>& b,
                               const char* what) {
    ASSERT_EQ(a.size(), b.size()) << what;
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i].slot_us, b[i].slot_us) << what << " record " << i;
      ASSERT_EQ(a[i].tenant, b[i].tenant) << what << " record " << i;
      ASSERT_EQ(a[i].seq, b[i].seq) << what << " record " << i;
      ASSERT_EQ(a[i].local_us, b[i].local_us) << what << " record " << i;
      ASSERT_EQ(a[i].reply, b[i].reply) << what << " record " << i;
    }
  }

  simnet::Topology topo_;
  std::vector<std::unique_ptr<std::vector<Ipv6Addr>>> target_lists_;
  std::vector<std::unique_ptr<prober::Yarrp6Source>> sources_;
};

TEST_F(ReactorPropertyTest, NoTenantIsEverStarved) {
  // The sharpest form of the no-starvation guarantee: because the heap is
  // virtual-time ordered and every tenant's dues are tenant-local, a
  // tenant's slot schedule under arbitrary load is *exactly* its solo
  // schedule — global slot times included. Competing tenants can never
  // push another tenant's virtual-time progress back.
  for (const auto seed : kSeeds) {
    Rng rng{seed};
    const auto shapes = random_shapes(rng, 6);

    CampaignReactor mixed{topo_};
    for (const auto& s : shapes) ASSERT_TRUE(mixed.submit(make_spec(s)).admitted());
    test_support::drain(mixed);

    for (const auto& s : shapes) {
      CampaignReactor solo{topo_};
      ASSERT_TRUE(solo.submit(make_spec(s)).admitted());
      test_support::drain(solo);
      const auto under_load = tenant_records(mixed.merged(), s.tenant);
      ASSERT_GT(under_load.size(), 0u) << "seed " << seed;
      expect_identical(under_load, solo.merged(), "seed/tenant timeline");

      // Bounded virtual-time progress, stated directly: consecutive slots
      // of one tenant never drift more than a handful of pacing quanta
      // apart (fill chains and reply handling ride inside slots).
      const auto effective_pps = s.rate_limit_pps > 0
                                     ? std::min(s.rate_limit_pps, s.pps)
                                     : s.pps;
      const auto bound = 4 * static_cast<std::uint64_t>(1e6 / effective_pps) + 4;
      for (std::size_t i = 1; i < under_load.size(); ++i)
        ASSERT_LE(under_load[i].slot_us - under_load[i - 1].slot_us, bound)
            << "seed " << seed << " tenant " << s.tenant << " slot " << i;
    }
  }
}

TEST_F(ReactorPropertyTest, ElephantNeverDelaysMice) {
  // Pathological mix (the issue's 10^6-vs-999 shape, scaled to simulator
  // size): one elephant tenant with two orders of magnitude more targets
  // than each of a crowd of mice. Fair share here means the mice run at
  // exactly their solo schedules and all retire while the elephant is
  // still probing — the elephant absorbs the queueing, not the mice.
  for (const auto seed : {kSeeds[0], kSeeds[5]}) {
    Rng rng{seed};
    TenantShape elephant;
    elephant.tenant = 1000;
    elephant.n_targets = 200;
    elephant.pps = 4000;
    elephant.max_ttl = 6;
    std::vector<TenantShape> mice;
    for (std::size_t i = 0; i < 30; ++i) {
      TenantShape m;
      m.tenant = 1 + rng.below(900);
      while (std::any_of(mice.begin(), mice.end(),
                         [&](const TenantShape& o) { return o.tenant == m.tenant; }))
        m.tenant = 1 + rng.below(900);
      m.n_targets = 2;
      m.pps = 1000 + 250 * static_cast<double>(rng.below(4));
      m.max_ttl = 5;
      mice.push_back(m);
    }

    CampaignReactor reactor{topo_};
    const auto eh = reactor.submit(make_spec(elephant)).handle;
    std::vector<CampaignHandle> mouse_handles;
    for (const auto& m : mice)
      mouse_handles.push_back(reactor.submit(make_spec(m)).handle);
    test_support::drain(reactor);
    ASSERT_EQ(reactor.state(eh), CampaignState::kFinished);

    std::uint64_t last_mouse_slot = 0;
    for (std::size_t i = 0; i < mice.size(); ++i) {
      ASSERT_EQ(reactor.state(mouse_handles[i]), CampaignState::kFinished);
      CampaignReactor solo{topo_};
      ASSERT_TRUE(solo.submit(make_spec(mice[i])).admitted());
      test_support::drain(solo);
      const auto under_load = tenant_records(reactor.merged(), mice[i].tenant);
      expect_identical(under_load, solo.merged(), "mouse timeline");
      if (!under_load.empty())
        last_mouse_slot = std::max(last_mouse_slot, under_load.back().slot_us);
    }
    const auto elephant_records = tenant_records(reactor.merged(), elephant.tenant);
    ASSERT_GT(elephant_records.size(), 0u);
    EXPECT_GT(elephant_records.back().slot_us, last_mouse_slot)
        << "seed " << seed << ": the elephant should outlive every mouse";
  }
}

TEST_F(ReactorPropertyTest, AdmissionOutcomesAreAPureFunctionOfTheBatch) {
  // Randomized admission battering: a seed-determined batch of submits
  // with duplicate tenants, replayed against a fresh reactor, must
  // reproduce the exact same AdmitResult sequence and the same final
  // stream. Rejections depend only on the batch, never on heap state or
  // wall clock.
  for (const auto seed : kSeeds) {
    auto run_batch = [&] {
      Rng rng{seed};
      CampaignReactor reactor{topo_};
      std::vector<AdmitResult> outcomes;
      for (std::size_t i = 0; i < 14; ++i) {
        TenantShape s;
        s.tenant = 1 + rng.below(8);  // small id space forces duplicates
        s.n_targets = 2 + rng.below(3);
        s.pps = 1500;
        s.max_ttl = 4;
        outcomes.push_back(reactor.submit(make_spec(s)).result);
      }
      test_support::drain(reactor);
      return std::make_pair(outcomes, reactor.merged());
    };
    const auto first = run_batch();
    const auto second = run_batch();
    ASSERT_EQ(first.first, second.first) << "seed " << seed;
    expect_identical(first.second, second.second, "admission replay");
    // The duplicate rule was actually exercised.
    EXPECT_TRUE(std::any_of(first.first.begin(), first.first.end(),
                            [](AdmitResult r) { return r != AdmitResult::kAdmitted; }))
        << "seed " << seed << ": batch never tripped a rejection";
    EXPECT_TRUE(std::any_of(first.first.begin(), first.first.end(),
                            [](AdmitResult r) { return r == AdmitResult::kAdmitted; }))
        << "seed " << seed << ": batch admitted nothing";
  }
}

TEST_F(ReactorPropertyTest, SimultaneousSubmitOrderNeverMatters) {
  // Scheduling is declared to be a pure function of the submitted specs:
  // for campaigns admitted at the same virtual instant, the submission
  // *order* (an accident of arrival) must not leak into results. Heap
  // tie-breaks use tenant ids, never admission sequence.
  for (const auto seed : {kSeeds[1], kSeeds[2], kSeeds[6], kSeeds[7]}) {
    Rng rng{seed};
    const auto shapes = random_shapes(rng, 6);

    auto run_order = [&](const std::vector<std::size_t>& order) {
      CampaignReactor reactor{topo_};
      std::vector<CampaignHandle> handles(shapes.size());
      for (const auto i : order) {
        const auto adm = reactor.submit(make_spec(shapes[i]));
        EXPECT_TRUE(adm.admitted());
        handles[i] = adm.handle;
      }
      test_support::drain(reactor);
      std::vector<ProbeStats> stats;
      for (std::size_t i = 0; i < shapes.size(); ++i)
        stats.push_back(*reactor.stats(handles[i]));
      return std::make_pair(reactor.merged(), stats);
    };

    std::vector<std::size_t> order(shapes.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    const auto reference = run_order(order);
    ASSERT_GT(reference.first.size(), 0u);
    for (int perm = 0; perm < 2; ++perm) {
      std::shuffle(order.begin(), order.end(), rng);
      const auto shuffled = run_order(order);
      expect_identical(reference.first, shuffled.first, "permuted submission");
      ASSERT_EQ(reference.second, shuffled.second) << "seed " << seed;
    }
  }
}

}  // namespace
}  // namespace beholder6::campaign
