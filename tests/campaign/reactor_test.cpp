// Lifecycle contracts for the multi-tenant CampaignReactor: admission and
// deterministic rejection, byte-identity of a reactor run to N serial
// CampaignRunner runs of the same specs, retired campaigns' stats and
// state unchanged by the release of their Pacers and replicas, a submit
// between steps keeping the merged stream canonical, incremental
// per-tenant streaming through io/trace_io-backed sinks, and a failing
// tenant or sink stream surfacing from step().
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
#include "support/drain.hpp"
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
    test_support::drain(solo);
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
  for (const auto& h : handles)
    EXPECT_EQ(reactor.state(h), CampaignState::kRunning);
  EXPECT_GT(test_support::drain(reactor), 0u);
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
  test_support::drain(reactor);

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

TEST_F(ReactorTest, ReleasedCampaignsKeepTheirStatsAndState) {
  // Retirement frees a campaign's runners and replicas; what stats() and
  // state() answer must not change with it. The reference is computed
  // outside the reactor: a finished tenant's stats are its CampaignRunner
  // run.
  ProbeStats ref_finish;
  {
    const auto spec = make_spec(1, 10);
    simnet::Network net{topo_};
    ref_finish =
        CampaignRunner::run_one(net, *spec.source, spec.endpoint, spec.pacing);
  }

  auto spec_finish = make_spec(1, 10);
  CampaignReactor reactor{topo_};
  // The reactor's copy of a sink goes with the rest: once retired, only
  // the test holds the token.
  const auto token = std::make_shared<int>(0);
  spec_finish.sink = [token](const wire::DecodedReply&) {};
  const auto finish = reactor.submit(spec_finish).handle;
  spec_finish.sink = nullptr;
  EXPECT_EQ(token.use_count(), 2);
  test_support::drain(reactor);

  EXPECT_EQ(token.use_count(), 1);
  EXPECT_EQ(reactor.state(finish), CampaignState::kFinished);
  EXPECT_EQ(reactor.stats(finish), ref_finish);
}

TEST_F(ReactorTest, SubmitBetweenStepsKeepsTheMergedStreamCanonical) {
  // Tenant 9's first slot runs at 0. Tenant 1, submitted after that step,
  // is admitted at the same instant, so its first slot is due at 0 too and
  // sorts ahead of the slot that already ran: merged() restores the
  // (slot_us, tenant, seq) order that execution order alone breaks.
  CampaignReactor reactor{topo_};
  ASSERT_TRUE(reactor.submit(make_spec(9, 8)).admitted());
  ASSERT_TRUE(reactor.step());
  ASSERT_TRUE(reactor.submit(make_spec(1, 8)).admitted());
  test_support::drain(reactor);
  const auto& merged = reactor.merged();
  // Both first slots answered, and tenant 9's ran first.
  const auto ran_first = tenant_records(merged, 9);
  ASSERT_FALSE(ran_first.empty());
  ASSERT_EQ(ran_first.front().slot_us, 0u);
  ASSERT_EQ(merged.front().slot_us, 0u);
  EXPECT_EQ(merged.front().tenant, 1u);
  for (std::size_t i = 1; i < merged.size(); ++i) {
    const auto& a = merged[i - 1];
    const auto& b = merged[i];
    EXPECT_LT(std::tie(a.slot_us, a.tenant, a.seq),
              std::tie(b.slot_us, b.tenant, b.seq));
  }
  for (const std::uint64_t t : {1u, 9u}) {
    const auto solo = solo_run(make_spec(t, 8));
    const auto recs = tenant_records(merged, t);
    ASSERT_EQ(recs.size(), solo.records.size()) << "tenant " << t;
    for (std::size_t i = 0; i < recs.size(); ++i) {
      EXPECT_EQ(recs[i].local_us, solo.records[i].local_us) << "tenant " << t;
      EXPECT_EQ(recs[i].reply, solo.records[i].reply) << "tenant " << t;
    }
  }
}

TEST_F(ReactorTest, DeterministicAdmissionRejections) {
  CampaignReactor reactor{topo_};
  ASSERT_TRUE(reactor.submit(make_spec(1, 6)).admitted());
  // Duplicate in-flight tenant id.
  EXPECT_EQ(reactor.submit(make_spec(1, 6)).result,
            AdmitResult::kRejectedDuplicateTenant);
  ASSERT_TRUE(reactor.submit(make_spec(2, 6)).admitted());
  // Bad specs are rejected before the tenant id is taken.
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
  // Retirement reopens the tenant id.
  test_support::drain(reactor);
  EXPECT_TRUE(reactor.submit(make_spec(1, 6)).admitted());
}

TEST_F(ReactorTest, ThrottleShapesGlobalTimeOnly) {
  // Service throttle below the tenant's own pacing rate: global slots are
  // deferred, but the tenant's local timeline — and every reply — is
  // byte-identical to the unthrottled run.
  CampaignReactor free_reactor{topo_};
  ASSERT_TRUE(free_reactor.submit(make_spec(5, 8, 4000)).admitted());
  test_support::drain(free_reactor);

  CampaignReactor throttled{topo_};
  auto spec = make_spec(5, 8, 4000);
  spec.rate_limit_pps = 1000;  // a quarter of the pacing rate
  ASSERT_TRUE(throttled.submit(spec).admitted());
  test_support::drain(throttled);

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
  EXPECT_GT(slow.back().slot_us, fast.back().slot_us);
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
  std::size_t streamed = 0;  // a sink call returns once the stream took it

  CampaignReactor reactor{topo_};
  auto spec_a = make_spec(21, 10);
  spec_a.sink = [&](const wire::DecodedReply& r) {
    text_sink(r);
    ++streamed;
  };
  auto spec_b = make_spec(22, 10);
  spec_b.sink = [&](const wire::DecodedReply& r) {
    binary_sink(r);
    ++streamed;
  };
  ASSERT_TRUE(reactor.submit(spec_a).admitted());
  ASSERT_TRUE(reactor.submit(spec_b).admitted());
  for (int i = 0; i < 200; ++i) ASSERT_TRUE(reactor.step());
  const std::size_t streamed_mid_run = streamed;
  test_support::drain(reactor);

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

TEST_F(ReactorTest, FailedSinkStreamSurfacesFromStep) {
  // A tenant streaming into an ostream that has gone bad: the writer
  // throws from the sink, and the error leaves step() instead of records
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
  EXPECT_THROW((void)test_support::drain(reactor), std::ios_base::failure);
  EXPECT_EQ(out.str().size(), 3 * sizeof(std::uint32_t))
      << "a record reached the stream after it failed";
}

TEST_F(ReactorTest, SourceFailureSurfacesFromStep) {
  // One tenant's source throws mid-campaign while three healthy tenants
  // run beside it: the error must leave step().
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
  EXPECT_THROW((void)test_support::drain(reactor), std::runtime_error);
}

}  // namespace
}  // namespace beholder6::campaign
