// EpochBarrier stress under the CampaignReactor: many concurrent
// heterogeneous Doubletree families (different split factors, epoch
// lengths, windows, rates, target counts — including more children than
// targets) all parking and merging on their SnapshotStopSets while
// competing for the same service. The reactor drives the same barrier
// protocol as the parallel backend (exhaustion counts as arrival, the
// final merge publishes the stop set), so these tests pin the protocol's
// edges: families isolated from load and all finishing, cancel/pause
// landing mid-epoch with members parked, and the all-exhausted final
// publish.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "campaign/reactor.hpp"
#include "prober/doubletree.hpp"

namespace beholder6::campaign {
namespace {

struct FamilyShape {
  std::uint64_t tenant = 0;
  std::size_t n_targets = 0;
  std::uint64_t split = 1;
  std::size_t epoch_traces = 0;  // 0 = derive from window
  double pps = 2000;
  std::uint8_t start_ttl = 5;
  std::uint8_t max_ttl = 8;
};

class BarrierStressTest : public ::testing::Test {
 protected:
  BarrierStressTest() : topo_(simnet::TopologyParams{}) {}

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

  /// A Doubletree family spec. Each family gets a private legacy stop set
  /// (the final merge publishes into it; sharing one across concurrently
  /// draining families would race and break determinism).
  CampaignSpec make_family(const FamilyShape& shape) {
    target_lists_.push_back(std::make_unique<std::vector<Ipv6Addr>>(
        targets(shape.n_targets, 5 * static_cast<std::size_t>(shape.tenant % 67))));
    stop_sets_.push_back(std::make_unique<prober::StopSet>());
    prober::DoubletreeConfig cfg;
    cfg.src = topo_.vantages()[shape.tenant % topo_.vantages().size()].src;
    cfg.pps = shape.pps;
    cfg.max_ttl = shape.max_ttl;
    cfg.start_ttl = shape.start_ttl;
    cfg.epoch_traces = shape.epoch_traces;
    cfg.instance = static_cast<std::uint8_t>(1 + shape.tenant % 200);
    sources_.push_back(std::make_unique<prober::DoubletreeSource>(
        cfg, *target_lists_.back(), *stop_sets_.back()));
    CampaignSpec spec;
    spec.tenant = shape.tenant;
    spec.source = sources_.back().get();
    spec.endpoint = cfg.endpoint();
    spec.pacing = cfg.pacing();
    spec.split_factor = shape.split;
    return spec;
  }

  /// The heterogeneous stress population: split factors 2..5, epoch
  /// lengths 1..3 plus window-derived, a family with more children than
  /// targets (split clamps), and one unsplit singleton (no barrier at
  /// all) sharing the service.
  std::vector<FamilyShape> stress_shapes() {
    return {
        {.tenant = 11, .n_targets = 18, .split = 3, .epoch_traces = 2, .pps = 2500},
        {.tenant = 12, .n_targets = 24, .split = 4, .epoch_traces = 1, .pps = 4000,
         .start_ttl = 4, .max_ttl = 7},
        {.tenant = 13, .n_targets = 10, .split = 2, .epoch_traces = 3, .pps = 1500},
        {.tenant = 14, .n_targets = 3, .split = 5, .epoch_traces = 1, .pps = 2000},
        {.tenant = 15, .n_targets = 20, .split = 5, .epoch_traces = 0, .pps = 3000,
         .start_ttl = 6, .max_ttl = 9},
        {.tenant = 16, .n_targets = 12, .split = 1, .epoch_traces = 0, .pps = 2000},
    };
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
      ASSERT_EQ(a[i].member, b[i].member) << what << " record " << i;
      ASSERT_EQ(a[i].seq, b[i].seq) << what << " record " << i;
      ASSERT_EQ(a[i].local_us, b[i].local_us) << what << " record " << i;
      ASSERT_EQ(a[i].reply, b[i].reply) << what << " record " << i;
    }
  }

  simnet::Topology topo_;
  std::vector<std::unique_ptr<std::vector<Ipv6Addr>>> target_lists_;
  std::vector<std::unique_ptr<prober::StopSet>> stop_sets_;
  std::vector<std::unique_ptr<prober::DoubletreeSource>> sources_;
};

TEST_F(BarrierStressTest, FamiliesUnderLoadMatchSoloFamilies) {
  // Barrier parking must stay a tenant-local affair: a family competing
  // with five other families finishes and produces the same records —
  // global slot times included — as the same family alone on the service.
  CampaignReactor mixed{topo_};
  std::vector<CampaignHandle> handles;
  for (const auto& shape : stress_shapes())
    handles.push_back(mixed.submit(make_family(shape)).handle);
  mixed.drain();
  for (const auto& h : handles)
    EXPECT_EQ(mixed.state(h), CampaignState::kFinished);

  for (const auto& shape : stress_shapes()) {
    CampaignReactor solo{topo_};
    ASSERT_TRUE(solo.submit(make_family(shape)).admitted());
    solo.drain();
    const auto under_load = tenant_records(mixed.merged(), shape.tenant);
    ASSERT_GT(under_load.size(), 0u) << "tenant " << shape.tenant;
    expect_identical(under_load, solo.merged(), "family timeline");
  }
}

TEST_F(BarrierStressTest, FinalMergePublishesEveryFamilyStopSet) {
  // The all-exhausted final merge must publish each family's discovered
  // interfaces into its legacy stop set.
  CampaignReactor reactor{topo_};
  for (const auto& shape : stress_shapes())
    EXPECT_TRUE(reactor.submit(make_family(shape)).admitted());
  reactor.drain();
  ASSERT_EQ(stop_sets_.size(), stress_shapes().size());
  for (std::size_t i = 0; i < stop_sets_.size(); ++i) {
    // Every *split* family publishes at its final merge. (The unsplit
    // singleton uses the legacy serial path, which grows the set live.)
    EXPECT_GT(stop_sets_[i]->size(), 0u)
        << "family " << i << " published nothing";
  }
}

TEST_F(BarrierStressTest, CancelMidEpochNeverWedgesTheService) {
  // Cancel a family while some members are parked at the barrier and
  // others still hold heap slots: the whole family retires, the barrier
  // never fires again, and the surviving tenants drain to byte-identical
  // results — regression against a cancelled family leaving the barrier
  // waiting on members that will never arrive.
  CampaignReactor ref{topo_};
  const auto survivors = stress_shapes();
  for (std::size_t i = 1; i < survivors.size(); ++i)
    ASSERT_TRUE(ref.submit(make_family(survivors[i])).admitted());
  ref.drain();

  CampaignReactor reactor{topo_};
  const auto victim = reactor.submit(make_family(survivors[0])).handle;
  std::vector<CampaignHandle> rest;
  for (std::size_t i = 1; i < survivors.size(); ++i)
    rest.push_back(reactor.submit(make_family(survivors[i])).handle);
  // Step deep enough that epoch_traces=2 children have parked at least
  // once, then cancel with the family mid-flight.
  for (int i = 0; i < 400; ++i) ASSERT_TRUE(reactor.step());
  ASSERT_TRUE(reactor.cancel(victim));
  EXPECT_EQ(reactor.state(victim), CampaignState::kCancelled);
  reactor.drain();
  EXPECT_TRUE(reactor.idle());
  for (const auto& h : rest) EXPECT_EQ(reactor.state(h), CampaignState::kFinished);

  for (std::size_t i = 1; i < survivors.size(); ++i)
    expect_identical(tenant_records(reactor.merged(), survivors[i].tenant),
                     tenant_records(ref.merged(), survivors[i].tenant),
                     "survivor after cancel");
}

TEST_F(BarrierStressTest, PauseResumeAcrossEpochsChangesNothing) {
  // Pause a family repeatedly — including while members sit parked at the
  // barrier — and resume it; records must match the uninterrupted run
  // exactly, slot times included, because resume restores saved dues and
  // parked members simply stay parked until their family merges.
  CampaignReactor ref{topo_};
  for (const auto& shape : stress_shapes())
    ASSERT_TRUE(ref.submit(make_family(shape)).admitted());
  ref.drain();

  CampaignReactor reactor{topo_};
  std::vector<CampaignHandle> handles;
  for (const auto& shape : stress_shapes())
    handles.push_back(reactor.submit(make_family(shape)).handle);
  // Interleave stepping with pause/resume cycles of alternating families.
  for (int cycle = 0; cycle < 6; ++cycle) {
    const auto& h = handles[static_cast<std::size_t>(cycle) % handles.size()];
    const bool paused = reactor.pause(h);
    for (int i = 0; i < 120; ++i)
      if (!reactor.step()) break;
    if (paused) {
      ASSERT_TRUE(reactor.resume(h));
    }
  }
  reactor.drain();
  expect_identical(reactor.merged(), ref.merged(), "pause/resume stress");
  for (const auto& h : handles)
    EXPECT_EQ(reactor.state(h), CampaignState::kFinished);
}

}  // namespace
}  // namespace beholder6::campaign
