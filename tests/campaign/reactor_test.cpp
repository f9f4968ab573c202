// Lifecycle contracts for the multi-tenant CampaignReactor: admission and
// deterministic rejection, submit/pause/resume/cancel mid-run, cancel
// refunding the in-flight probe-budget reservation, byte-identity of a
// reactor run to N serial CampaignRunner runs of the same specs, identical
// replay after reset() with pre-reset handles staying dead, retired
// campaigns' stats and state unchanged by the release of their Pacers
// and replicas (and a sink cancelling or pausing its own campaign caught
// by a DCHECK), step()'s lookahead prefetch changing no result when the slots
// it warms go stale, released or destroyed, incremental per-tenant
// streaming through io/trace_io-backed sinks, and a failing tenant or sink
// stream surfacing from drain().
#include "campaign/reactor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <ios>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "io/trace_io.hpp"
#include "prober/yarrp6.hpp"
#include "support/conservation.hpp"
#include "support/throwing_source.hpp"

namespace beholder6::campaign {
namespace {

class ReactorTest : public ::testing::Test {
 protected:
  ReactorTest() : topo_(simnet::TopologyParams{}) {}

  std::vector<Ipv6Addr> targets(std::size_t n, std::size_t skip = 0) {
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

  /// One tenant's spec over a private yarrp6 source. The fixture keeps the
  /// source and its target list alive; tenants get disjoint target slices
  /// so their campaigns are genuinely distinct.
  CampaignSpec make_spec(std::uint64_t tenant, std::size_t n_targets,
                         double pps = 3000, std::uint8_t max_ttl = 6) {
    target_lists_.push_back(std::make_unique<std::vector<Ipv6Addr>>(
        targets(n_targets, 4 * static_cast<std::size_t>(tenant % 97))));
    prober::Yarrp6Config cfg;
    cfg.src = topo_.vantages()[tenant % topo_.vantages().size()].src;
    cfg.pps = pps;
    cfg.max_ttl = max_ttl;
    cfg.fill_mode = true;
    cfg.instance = static_cast<std::uint8_t>(1 + tenant % 200);
    sources_.push_back(
        std::make_unique<prober::Yarrp6Source>(cfg, *target_lists_.back()));
    CampaignSpec spec;
    spec.tenant = tenant;
    spec.source = sources_.back().get();
    spec.endpoint = cfg.endpoint();
    spec.pacing = cfg.pacing();
    return spec;
  }

  static void expect_identical(const std::vector<ReactorReply>& a,
                               const std::vector<ReactorReply>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i].slot_us, b[i].slot_us) << "record " << i;
      ASSERT_EQ(a[i].tenant, b[i].tenant) << "record " << i;
      ASSERT_EQ(a[i].seq, b[i].seq) << "record " << i;
      ASSERT_EQ(a[i].local_us, b[i].local_us) << "record " << i;
      ASSERT_EQ(a[i].reply, b[i].reply) << "record " << i;
    }
  }

  static std::vector<ReactorReply> tenant_records(
      const std::vector<ReactorReply>& merged, std::uint64_t tenant) {
    std::vector<ReactorReply> out;
    for (const auto& r : merged)
      if (r.tenant == tenant) out.push_back(r);
    return out;
  }

  /// A campaign run alone in its own reactor: the reference a tenant's
  /// results must equal however crowded its own reactor is.
  struct SoloRun {
    std::vector<ReactorReply> records;
    ProbeStats stats;
    CampaignState state = CampaignState::kRunning;
  };
  SoloRun solo_run(const CampaignSpec& spec) {
    CampaignReactor solo{topo_};
    const auto h = solo.submit(spec).handle;
    solo.drain();
    return {solo.merged(), *solo.stats(h), *solo.state(h)};
  }

  simnet::Topology topo_;
  std::vector<std::unique_ptr<std::vector<Ipv6Addr>>> target_lists_;
  std::vector<std::unique_ptr<prober::Yarrp6Source>> sources_;
};

TEST_F(ReactorTest, RunsManyTenantsToCompletion) {
  CampaignReactor reactor{topo_};
  std::vector<CampaignHandle> handles;
  for (std::uint64_t t = 1; t <= 5; ++t) {
    const auto adm = reactor.submit(make_spec(t, 12));
    ASSERT_TRUE(adm.admitted());
    handles.push_back(adm.handle);
  }
  EXPECT_EQ(reactor.active_campaigns(), 5u);
  EXPECT_GT(reactor.drain(), 0u);
  EXPECT_TRUE(reactor.idle());
  EXPECT_EQ(reactor.active_campaigns(), 0u);
  for (const auto& h : handles) {
    EXPECT_EQ(reactor.state(h), CampaignState::kFinished);
    const auto stats = reactor.stats(h);
    ASSERT_TRUE(stats.has_value());
    EXPECT_GT(stats->probes_sent, 0u);
    EXPECT_GT(stats->replies, 0u);
  }
  // The merged stream is canonically ordered and covers every tenant.
  const auto& merged = reactor.merged();
  EXPECT_GT(merged.size(), 0u);
  for (std::size_t i = 1; i < merged.size(); ++i) {
    const auto& a = merged[i - 1];
    const auto& b = merged[i];
    EXPECT_LE(std::tie(a.slot_us, a.tenant, a.seq),
              std::tie(b.slot_us, b.tenant, b.seq));
  }
  for (std::uint64_t t = 1; t <= 5; ++t)
    EXPECT_GT(tenant_records(merged, t).size(), 0u) << "tenant " << t;
  test_support::expect_reactor_conserved(reactor, handles);
}

TEST_F(ReactorTest, ReactorRunEqualsSerialRunnersPerTenant) {
  // The core isolation contract: a reactor run of N tenants is
  // byte-identical, per tenant, to N serial CampaignRunner runs of the
  // same specs — same replies, same local virtual times, same stats.
  struct Solo {
    std::vector<std::pair<std::uint64_t, wire::DecodedReply>> replies;
    ProbeStats stats;
  };
  std::vector<Solo> solo(4);
  for (std::uint64_t t = 0; t < 4; ++t) {
    const auto spec = make_spec(100 + t, 10, 2000 + 500 * t);
    simnet::Network net{topo_};
    Solo& s = solo[t];
    s.stats = CampaignRunner::run_one(
        net, *spec.source, spec.endpoint, spec.pacing,
        [&](const wire::DecodedReply& r) { s.replies.emplace_back(net.now_us(), r); });
  }

  CampaignReactor reactor{topo_};
  std::vector<CampaignHandle> handles;
  for (std::uint64_t t = 0; t < 4; ++t) {
    const auto adm = reactor.submit(make_spec(100 + t, 10, 2000 + 500 * t));
    ASSERT_TRUE(adm.admitted());
    handles.push_back(adm.handle);
  }
  reactor.drain();

  for (std::uint64_t t = 0; t < 4; ++t) {
    const auto recs = tenant_records(reactor.merged(), 100 + t);
    const Solo& s = solo[t];
    ASSERT_EQ(recs.size(), s.replies.size()) << "tenant " << t;
    for (std::size_t i = 0; i < recs.size(); ++i) {
      EXPECT_EQ(recs[i].local_us, s.replies[i].first) << "tenant " << t;
      EXPECT_EQ(recs[i].reply, s.replies[i].second) << "tenant " << t;
    }
    EXPECT_EQ(reactor.stats(handles[t]), s.stats) << "tenant " << t;
  }
}

TEST_F(ReactorTest, PauseResumeChangesNothingButWallClock) {
  // Reference: two tenants drained without interference.
  CampaignReactor ref{topo_};
  ASSERT_TRUE(ref.submit(make_spec(7, 10)).admitted());
  ASSERT_TRUE(ref.submit(make_spec(8, 10)).admitted());
  ref.drain();

  // Same specs, but tenant 7 is paused mid-run while 8 keeps stepping,
  // then resumed. Saved dues are restored verbatim, so even the *global*
  // slot times match the uninterrupted run.
  CampaignReactor reactor{topo_};
  const auto h7 = reactor.submit(make_spec(7, 10)).handle;
  const auto h8 = reactor.submit(make_spec(8, 10)).handle;
  for (int i = 0; i < 20; ++i) ASSERT_TRUE(reactor.step());
  ASSERT_TRUE(reactor.pause(h7));
  EXPECT_EQ(reactor.state(h7), CampaignState::kPaused);
  for (int i = 0; i < 50; ++i) reactor.step();  // only tenant 8 progresses
  ASSERT_TRUE(reactor.resume(h7));
  reactor.drain();

  expect_identical(reactor.merged(), ref.merged());
  EXPECT_EQ(reactor.state(h7), CampaignState::kFinished);
  EXPECT_EQ(reactor.state(h8), CampaignState::kFinished);
  // Double-pause/resume of finished campaigns is refused, not UB.
  EXPECT_FALSE(reactor.pause(h7));
  EXPECT_FALSE(reactor.resume(h7));
}

TEST_F(ReactorTest, CancelRefundsInFlightBudget) {
  ReactorOptions options;
  options.max_reserved_probes = 1000;
  CampaignReactor reactor{topo_, {}, options};

  auto spec_a = make_spec(1, 10);
  spec_a.probe_budget = 800;
  const auto a = reactor.submit(spec_a);
  ASSERT_TRUE(a.admitted());
  EXPECT_EQ(reactor.reserved_probes(), 800u);

  auto spec_b = make_spec(2, 10);
  spec_b.probe_budget = 400;
  EXPECT_EQ(reactor.submit(spec_b).result, AdmitResult::kRejectedBudgetLimit);

  // Run tenant 1 partway — the budget is committed, not yet spent.
  for (int i = 0; i < 30; ++i) ASSERT_TRUE(reactor.step());
  ASSERT_TRUE(reactor.cancel(a.handle));
  EXPECT_EQ(reactor.state(a.handle), CampaignState::kCancelled);
  EXPECT_EQ(reactor.reserved_probes(), 0u);
  EXPECT_EQ(reactor.active_campaigns(), 0u);

  // The refund reopens admission immediately; cancel is idempotent-false.
  const auto b = reactor.submit(spec_b);
  EXPECT_TRUE(b.admitted());
  EXPECT_FALSE(reactor.cancel(a.handle));
  reactor.drain();
  EXPECT_EQ(reactor.state(b.handle), CampaignState::kFinished);
  // The cancelled campaign's stats stay frozen at cancellation.
  const auto stats = reactor.stats(a.handle);
  ASSERT_TRUE(stats.has_value());
  EXPECT_GT(stats->probes_sent, 0u);
  EXPECT_LT(stats->probes_sent, 800u);
}

TEST_F(ReactorTest, BudgetCapRetiresDeterministically) {
  auto run = [&](std::uint64_t tenant) {
    CampaignReactor reactor{topo_};
    auto spec = make_spec(tenant, 12);
    spec.probe_budget = 25;
    const auto h = reactor.submit(spec).handle;
    reactor.drain();
    EXPECT_EQ(reactor.state(h), CampaignState::kBudgetExhausted);
    const auto stats = reactor.stats(h);
    EXPECT_GE(stats->probes_sent, 25u);
    return std::make_pair(stats->probes_sent, reactor.merged().size());
  };
  // Same spec twice: the forced retirement happens at the same probe.
  EXPECT_EQ(run(3), run(3));
}

TEST_F(ReactorTest, ReleasedCampaignsKeepTheirStatsAndState) {
  // Retirement frees a campaign's runners and replicas; what stats() and
  // state() answer must not change with it. The references are computed
  // outside the reactor: a finished tenant's stats are its CampaignRunner
  // run, a budget-capped one's are a runner stepped to the cap, and a
  // cancelled one's are what stats() said just before the cancel.
  ProbeStats ref_finish;
  ProbeStats ref_budget;
  {
    const auto spec = make_spec(1, 10);
    simnet::Network net{topo_};
    ref_finish =
        CampaignRunner::run_one(net, *spec.source, spec.endpoint, spec.pacing);
  }
  {
    const auto spec = make_spec(2, 10);
    simnet::Network net{topo_};
    CampaignRunner runner{net};
    runner.add(*spec.source, spec.endpoint, spec.pacing);
    while (runner.stats()[0].probes_sent < 25) ASSERT_TRUE(runner.step());
    ref_budget = runner.stats()[0];
  }

  auto spec_finish = make_spec(1, 10);
  auto spec_budget = make_spec(2, 10);
  spec_budget.probe_budget = 25;
  const auto spec_cancel = make_spec(3, 10);
  CampaignReactor reactor{topo_};
  // The reactor's copy of a sink goes with the rest: once retired, only
  // the test holds the token.
  const auto token = std::make_shared<int>(0);
  spec_finish.sink = [token](const wire::DecodedReply&) {};
  const auto finish = reactor.submit(spec_finish).handle;
  spec_finish.sink = nullptr;
  const auto budget = reactor.submit(spec_budget).handle;
  const auto cancel = reactor.submit(spec_cancel).handle;
  EXPECT_EQ(token.use_count(), 2);
  for (int i = 0; i < 30; ++i) ASSERT_TRUE(reactor.step());
  const auto live = reactor.stats(cancel);
  ASSERT_TRUE(reactor.cancel(cancel));
  EXPECT_EQ(reactor.stats(cancel), live);
  reactor.drain();

  EXPECT_EQ(token.use_count(), 1);
  EXPECT_EQ(reactor.state(finish), CampaignState::kFinished);
  EXPECT_EQ(reactor.state(budget), CampaignState::kBudgetExhausted);
  EXPECT_EQ(reactor.state(cancel), CampaignState::kCancelled);
  EXPECT_EQ(reactor.stats(finish), ref_finish);
  EXPECT_EQ(reactor.stats(budget), ref_budget);
  EXPECT_EQ(reactor.stats(cancel), live);
}

#if BEHOLDER6_DCHECK_LEVEL >= 1
TEST_F(ReactorTest, CancelFromOwnSinkTripsTheStepBoundaryCheck) {
  // Control ops run at step boundaries. A sink that cancels its own
  // campaign would free the runner mid-step; settle() aborts instead.
  EXPECT_DEATH(
      {
        CampaignReactor reactor{topo_};
        CampaignHandle self;
        auto spec = make_spec(1, 10);
        spec.sink = [&](const wire::DecodedReply&) { reactor.cancel(self); };
        self = reactor.submit(spec).handle;
        reactor.drain();
      },
      "settling a campaign mid-slot");
}

TEST_F(ReactorTest, PauseFromOwnSinkTripsTheStepBoundaryCheck) {
  // The same rule for pause: mid-slot, run_slot would reschedule the
  // campaign right after the pause, leaving it running while it reports
  // kPaused, and resume() would then strand it in the admission ledger.
  EXPECT_DEATH(
      {
        CampaignReactor reactor{topo_};
        CampaignHandle self;
        auto spec = make_spec(1, 10);
        spec.sink = [&](const wire::DecodedReply&) { reactor.pause(self); };
        self = reactor.submit(spec).handle;
        reactor.drain();
      },
      "pausing a campaign mid-slot");
}
#endif

TEST_F(ReactorTest, DeterministicAdmissionRejections) {
  ReactorOptions options;
  options.max_campaigns = 2;
  CampaignReactor reactor{topo_, {}, options};
  ASSERT_TRUE(reactor.submit(make_spec(1, 6)).admitted());
  // Duplicate in-flight tenant id.
  EXPECT_EQ(reactor.submit(make_spec(1, 6)).result,
            AdmitResult::kRejectedDuplicateTenant);
  ASSERT_TRUE(reactor.submit(make_spec(2, 6)).admitted());
  // Campaign ceiling.
  EXPECT_EQ(reactor.submit(make_spec(3, 6)).result,
            AdmitResult::kRejectedCampaignLimit);
  // Bad specs are rejected before any ledger touch.
  CampaignSpec null_source;
  null_source.tenant = 9;
  EXPECT_EQ(reactor.submit(null_source).result, AdmitResult::kRejectedBadSpec);
  // Non-finite pacing: a NaN pps must not be paced at a silent 1 pps, nor
  // +inf at a zero gap.
  for (const double pps : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()})
    EXPECT_EQ(reactor.submit(make_spec(9, 6, pps)).result,
              AdmitResult::kRejectedBadSpec)
        << "pps " << pps;
  // Retirement reopens both the tenant id and the campaign slot.
  reactor.drain();
  EXPECT_TRUE(reactor.submit(make_spec(1, 6)).admitted());
}

TEST_F(ReactorTest, ReplaysIdenticallyAfterReset) {
  CampaignReactor reactor{topo_};
  auto run_once = [&] {
    std::vector<CampaignHandle> handles;
    for (std::uint64_t t = 1; t <= 3; ++t)
      handles.push_back(reactor.submit(make_spec(t, 8)).handle);
    reactor.drain();
    std::vector<ProbeStats> stats;
    for (const auto& h : handles) stats.push_back(*reactor.stats(h));
    return std::make_pair(reactor.merged(), stats);
  };
  const auto first = run_once();
  reactor.reset();
  EXPECT_EQ(reactor.now_us(), 0u);
  EXPECT_TRUE(reactor.idle());
  const auto second = run_once();
  expect_identical(first.first, second.first);
  EXPECT_EQ(first.second, second.second);
}

TEST_F(ReactorTest, StaleHandlesStayDeadAfterReset) {
  // A replay re-admits the same tenant first, so its campaign lands in the
  // slot the old one held: a handle from before reset() must still
  // resolve to nothing.
  CampaignReactor reactor{topo_};
  const auto old = reactor.submit(make_spec(1, 8)).handle;
  ASSERT_TRUE(old.valid());
  reactor.drain();
  reactor.reset();
  const auto fresh = reactor.submit(make_spec(1, 8)).handle;
  ASSERT_TRUE(fresh.valid());
  EXPECT_NE(fresh, old);
  EXPECT_FALSE(reactor.state(old).has_value());
  EXPECT_FALSE(reactor.stats(old).has_value());
  EXPECT_FALSE(reactor.pause(old));
  EXPECT_FALSE(reactor.resume(old));
  EXPECT_FALSE(reactor.cancel(old));
  EXPECT_EQ(reactor.state(fresh), CampaignState::kRunning);
  reactor.drain();
  EXPECT_EQ(reactor.state(fresh), CampaignState::kFinished);
}

TEST_F(ReactorTest, LookaheadOverStaleSlotsChangesNoResult) {
  // step() warms the three slots queued behind the one it runs. Here
  // those go stale right before a step. Eight tenants at one rate,
  // admitted together, are served round-robin in tenant order (ties
  // resolve on the tenant id), so the tenants next in line are known.
  // Tenants 5 and 6 are cancelled, which frees their Pacers and
  // replicas, so the stages that follow a campaign's Live pointer meet
  // released campaigns (the asan-ubsan leg checks that none of them reads
  // freed memory). Tenant 3 spends the last of its budget in round 20
  // and is released mid-run.
  auto spec_of = [&](std::uint64_t t) {
    auto spec = make_spec(t, 8, 3000);
    if (t == 3) spec.probe_budget = 20;
    return spec;
  };
  CampaignReactor reactor{topo_};
  std::vector<CampaignHandle> h(9);
  for (std::uint64_t t = 1; t <= 8; ++t) {
    const auto adm = reactor.submit(spec_of(t));
    ASSERT_TRUE(adm.admitted());
    h[t] = adm.handle;
  }
  // The first round serves 1, 2, 3, 4, 5, ...: after three steps tenant
  // 4 runs next and 5, 6 and 7 sit behind it at h[0..2].
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(reactor.step());
  EXPECT_EQ(reactor.stats(h[3])->probes_sent, 1u);
  EXPECT_EQ(reactor.stats(h[4])->probes_sent, 0u);
  const auto live5 = reactor.stats(h[5]);
  const auto live6 = reactor.stats(h[6]);
  ASSERT_TRUE(reactor.cancel(h[5]));
  ASSERT_TRUE(reactor.cancel(h[6]));
  ASSERT_TRUE(reactor.pause(h[7]));
  ASSERT_TRUE(reactor.step());  // tenant 4, warming three stale slots
  EXPECT_EQ(reactor.stats(h[4])->probes_sent, 1u);
  for (int i = 0; i < 40; ++i) ASSERT_TRUE(reactor.step());
  ASSERT_TRUE(reactor.resume(h[7]));
  reactor.drain();

  EXPECT_EQ(reactor.state(h[3]), CampaignState::kBudgetExhausted);
  EXPECT_EQ(reactor.state(h[5]), CampaignState::kCancelled);
  EXPECT_EQ(reactor.state(h[6]), CampaignState::kCancelled);
  EXPECT_EQ(reactor.stats(h[5]), live5);
  EXPECT_EQ(reactor.stats(h[6]), live6);
  for (std::uint64_t t = 1; t <= 8; ++t) {
    if (t == 5 || t == 6) continue;
    const auto solo = solo_run(spec_of(t));
    EXPECT_EQ(reactor.state(h[t]), solo.state) << "tenant " << t;
    EXPECT_EQ(reactor.stats(h[t]), solo.stats) << "tenant " << t;
    expect_identical(tenant_records(reactor.merged(), t), solo.records);
  }
}

TEST_F(ReactorTest, ResetMidRunThenResubmitEqualsSoloRuns) {
  // reset() with slots still queued destroys every member the lookahead
  // could warm, and the heap empties with them: the resubmitted run warms
  // only live members (the asan-ubsan leg checks the "only"), and every
  // tenant's results equal its solo run.
  CampaignReactor reactor{topo_};
  for (std::uint64_t t = 1; t <= 6; ++t)
    ASSERT_TRUE(reactor.submit(make_spec(t, 8, 3000)).admitted());
  for (int i = 0; i < 25; ++i) ASSERT_TRUE(reactor.step());
  reactor.reset();

  std::vector<CampaignHandle> handles;
  for (std::uint64_t t = 1; t <= 6; ++t)
    handles.push_back(reactor.submit(make_spec(t, 8, 3000)).handle);
  reactor.drain();
  for (std::uint64_t t = 1; t <= 6; ++t) {
    const auto solo = solo_run(make_spec(t, 8, 3000));
    EXPECT_EQ(reactor.state(handles[t - 1]), CampaignState::kFinished);
    EXPECT_EQ(reactor.stats(handles[t - 1]), solo.stats) << "tenant " << t;
    expect_identical(tenant_records(reactor.merged(), t), solo.records);
  }
}

TEST_F(ReactorTest, ThrottleShapesGlobalTimeOnly) {
  // Service throttle below the tenant's own pacing rate: global slots are
  // deferred, but the tenant's local timeline — and every reply — is
  // byte-identical to the unthrottled run.
  CampaignReactor free_reactor{topo_};
  ASSERT_TRUE(free_reactor.submit(make_spec(5, 8, 4000)).admitted());
  free_reactor.drain();

  CampaignReactor throttled{topo_};
  auto spec = make_spec(5, 8, 4000);
  spec.rate_limit_pps = 1000;  // a quarter of the pacing rate
  spec.rate_limit_burst = 1;
  ASSERT_TRUE(throttled.submit(spec).admitted());
  throttled.drain();

  const auto& fast = free_reactor.merged();
  const auto& slow = throttled.merged();
  ASSERT_EQ(fast.size(), slow.size());
  ASSERT_GT(fast.size(), 0u);
  bool deferred = false;
  for (std::size_t i = 0; i < fast.size(); ++i) {
    EXPECT_EQ(fast[i].local_us, slow[i].local_us);
    EXPECT_EQ(fast[i].reply, slow[i].reply);
    EXPECT_GE(slow[i].slot_us, fast[i].slot_us);
    deferred |= slow[i].slot_us > fast[i].slot_us;
  }
  EXPECT_TRUE(deferred) << "a 4x-over-rate tenant was never deferred";
  // The throttled campaign finishes later on the service clock.
  EXPECT_GT(throttled.now_us(), free_reactor.now_us());
}

TEST_F(ReactorTest, StreamsIncrementallyThroughTraceIoSinks) {
  // Results leave per tenant through io/trace_io-backed sinks as replies
  // arrive — not at exhaustion. The text and binary streams both replay to
  // exactly the tenant's merged substream.
  std::ostringstream text_out;
  std::ostringstream binary_out;
  io::StreamingTraceSink text_sink{text_out, io::StreamingTraceSink::Format::kText};
  io::StreamingTraceSink binary_sink{binary_out,
                                     io::StreamingTraceSink::Format::kBinary};
  std::size_t streamed_mid_run = 0;

  CampaignReactor reactor{topo_};
  auto spec_a = make_spec(21, 10);
  spec_a.sink = [&](const wire::DecodedReply& r) { text_sink(r); };
  auto spec_b = make_spec(22, 10);
  spec_b.sink = [&](const wire::DecodedReply& r) { binary_sink(r); };
  ASSERT_TRUE(reactor.submit(spec_a).admitted());
  ASSERT_TRUE(reactor.submit(spec_b).admitted());
  for (int i = 0; i < 200; ++i) ASSERT_TRUE(reactor.step());
  streamed_mid_run = text_sink.written() + binary_sink.written();
  reactor.drain();

  EXPECT_GT(streamed_mid_run, 0u) << "nothing streamed before exhaustion";
  std::istringstream text_in{text_out.str()};
  const auto text_records = io::read_text(text_in);
  EXPECT_EQ(text_records.malformed, 0u);
  std::istringstream binary_in{binary_out.str()};
  const auto binary_records = io::read_binary(binary_in);
  ASSERT_TRUE(binary_records.has_value());

  auto expect_stream = [&](const std::vector<io::TraceRecord>& got,
                           std::uint64_t tenant) {
    const auto recs = tenant_records(reactor.merged(), tenant);
    ASSERT_EQ(got.size(), recs.size()) << "tenant " << tenant;
    for (std::size_t i = 0; i < got.size(); ++i)
      EXPECT_EQ(got[i], io::TraceRecord::from_reply(recs[i].reply))
          << "tenant " << tenant << " record " << i;
  };
  expect_stream(text_records.records, 21);
  expect_stream(*binary_records, 22);
}

TEST_F(ReactorTest, FailedSinkStreamSurfacesFromDrain) {
  // A tenant streaming into an ostream that has gone bad: the writer
  // throws from the sink, and the error leaves drain() instead of records
  // vanishing while healthy tenants finish.
  CampaignReactor reactor{topo_};
  for (std::uint64_t t = 1; t <= 3; ++t)
    ASSERT_TRUE(reactor.submit(make_spec(t, 10)).admitted());
  std::ostringstream out;
  io::StreamingTraceSink sink{out, io::StreamingTraceSink::Format::kBinary};
  out.setstate(std::ios::badbit);
  auto spec = make_spec(4, 10);
  spec.sink = [&](const wire::DecodedReply& r) { sink(r); };
  ASSERT_TRUE(reactor.submit(spec).admitted());
  EXPECT_THROW((void)reactor.drain(), std::ios_base::failure);
  EXPECT_EQ(sink.written(), 0u);
}

TEST_F(ReactorTest, SourceFailureSurfacesFromDrain) {
  // One tenant's source throws mid-campaign while three healthy tenants
  // run beside it: the error must leave drain().
  CampaignReactor reactor{topo_};
  for (std::uint64_t t = 1; t <= 3; ++t)
    ASSERT_TRUE(reactor.submit(make_spec(t, 12)).admitted());
  const auto target = targets(1).front();
  test_support::ThrowingSource failing{target, 200, 20};
  CampaignSpec spec;
  spec.tenant = 4;
  spec.source = &failing;
  spec.endpoint = {topo_.vantages()[0].src};
  spec.pacing = PacingPolicy::uniform(3000);
  ASSERT_TRUE(reactor.submit(spec).admitted());
  EXPECT_THROW((void)reactor.drain(), std::runtime_error);
}

}  // namespace
}  // namespace beholder6::campaign
