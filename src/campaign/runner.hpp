// campaign/runner.hpp — the event-driven scheduling core.
//
// A Pacer is one source's send schedule: when its slot comes due it
// advances the virtual clock to the slot, polls the source, emits the
// probe (encode → inject → decode → dispatch) and moves its due time on
// per its pacing policy. One CampaignRunner drives any number of Pacers
// over one simnet::Network from a min-heap of (due virtual time,
// sequence) send slots, popping the earliest each step. With one source
// this reduces exactly to the classic prober loop (probe, advance, probe,
// ...); with several it interleaves them in virtual time, which is what
// makes multi-vantage and mixed-protocol campaigns first-class scenarios
// rather than per-prober reimplementations.
//
// Each Pacer owns its source's ProbeStats: probes sent, fills, replies
// (instance-filtered), elapsed virtual time; sources contribute their
// private counters via ProbeSource::finish().
//
// Determinism: everything is a pure function of (sources, endpoints,
// pacing, network). Ties in the heap resolve by schedule order, so equal
// -pps sources interleave round-robin in add() order.
#pragma once

#include <cstdint>
#include <queue>
#include <span>
#include <vector>

#include "campaign/probe_source.hpp"
#include "netbase/flat_map.hpp"
#include "simnet/network.hpp"
#include "simnet/route_cache.hpp"

namespace beholder6::campaign {

/// The wire identity of one probe at virtual time `now_us` — the spec
/// every campaign encode site shares.
inline wire::ProbeSpec probe_spec_at(const Endpoint& endpoint,
                                     const Ipv6Addr& target, std::uint8_t ttl,
                                     std::uint64_t now_us) {
  wire::ProbeSpec spec;
  spec.src = endpoint.src;
  spec.target = target;
  spec.proto = endpoint.proto;
  spec.ttl = ttl;
  spec.elapsed_us = static_cast<std::uint32_t>(now_us);
  spec.instance = endpoint.instance;
  return spec;
}

/// Route warm-up into a read-only snapshot, shared by every front end
/// that warms one (ParallelCampaignRunner::run, CampaignReactor::submit).
/// One probe encode per (endpoint, target) recovers the exact RouteKey
/// every probe to that target resolves under — the wire format keeps the
/// transport bytes that feed the ECMP flow hash per-target constant (the
/// paper's checksum fudge), so ttl 1 at time 0 stands in for the whole
/// trace. Keys dedup across every add(), first seen wins, and resolve in
/// that order, so the snapshot layout is a pure function of the add()
/// sequence. One scratch Path is reused throughout: after the first few
/// keys every resolution is allocation-free (Topology::path_into).
class RouteWarmer {
 public:
  explicit RouteWarmer(const simnet::Topology& topo) : topo_(topo) {}

  /// Resolve the route of every target in `targets` probed from
  /// `endpoint` that is not in the snapshot yet, in target order; returns
  /// how many routes were added.
  std::size_t add(const Endpoint& endpoint, std::span<const Ipv6Addr> targets);

  /// The snapshot to attach to replicas; null until a route is added.
  [[nodiscard]] std::shared_ptr<const simnet::RouteCache> snapshot() const {
    return cache_;
  }

 private:
  const simnet::Topology& topo_;
  netbase::FlatSet<simnet::RouteKey, simnet::RouteKeyHash> seen_;
  std::vector<std::uint8_t> encode_buf_;
  simnet::Path path_;
  std::shared_ptr<simnet::RouteCache> cache_;
};

/// One source's send schedule: the pacing state of a single ProbeSource —
/// its exact per-probe gap, Bresenham carry, next due time and burst round
/// — plus its ProbeStats and the one emit path (encode → inject → decode →
/// dispatch). A Pacer is the scheduling primitive every front end drives:
/// CampaignRunner keeps a heap of them over one Network, CampaignReactor
/// pushes each campaign's Pacer straight into its global heap, and a
/// ParallelCampaignRunner work unit drives one over its replica. The Pacer
/// holds no Network and no buffer; the driver passes both to every step(),
/// so one probe buffer serves every Pacer a driver owns.
class Pacer {
 public:
  /// Schedule `source` for its first send slot at `first_due_us`. The
  /// source (and sink) must outlive the Pacer.
  Pacer(ProbeSource& source, const Endpoint& endpoint,
        const PacingPolicy& pacing, ResponseSink sink,
        std::uint64_t first_due_us);

  /// Process exactly one due event over `net`: advance its clock to the
  /// slot, poll the source, then emit the probe (encoded into `probe_buf`)
  /// or close the round. Returns false when the source is exhausted; its
  /// stats are then final. Must not be called once done().
  bool step(simnet::Network& net, simnet::Packet& probe_buf);

  /// The virtual time of the next send slot on the driven network's clock.
  [[nodiscard]] std::uint64_t due_us() const { return due_us_; }
  /// True once step() has reported exhaustion.
  [[nodiscard]] bool done() const { return done_; }
  /// Stats so far (complete once done(): the source's private counters
  /// fold in at exhaustion).
  [[nodiscard]] const ProbeStats& stats() const { return stats_; }

 private:
  void emit(simnet::Network& net, simnet::Packet& probe_buf,
            const Probe& probe);

  ProbeSource* source_;
  Endpoint endpoint_;
  PacingPolicy pacing_;
  ResponseSink sink_;
  double gap_exact_us_;          // ideal per-probe budget, 1e6/pps
  double pace_carry_ = 0.0;      // Bresenham remainder, in [0, 1)
  std::uint64_t due_us_;         // next send slot
  std::uint64_t start_us_ = 0;
  std::uint64_t round_sent_ = 0; // burst pacing: probes this round
  bool begun_ = false;
  bool done_ = false;
  ProbeStats stats_;
};

/// The event-driven scheduling core for many sources over one
/// simnet::Network: a min-heap of (due virtual time, sequence) send slots
/// over one Pacer per source. Deterministic: results are a pure function
/// of (sources, endpoints, pacing, network); heap ties resolve in add()
/// order. Single-threaded by design — parallelism lives a layer up, in
/// ParallelCampaignRunner.
class CampaignRunner {
 public:
  /// The runner injects into (and advances the clock of) `net`, which must
  /// outlive it.
  explicit CampaignRunner(simnet::Network& net) : net_(net) {}

  /// Register a source. The source (and sink) must outlive the runner. The
  /// returned index identifies the source's ProbeStats in run()'s result.
  std::size_t add(ProbeSource& source, const Endpoint& endpoint,
                  const PacingPolicy& pacing, ResponseSink sink = {});

  /// Drive every registered source to exhaustion; returns per-source stats
  /// (parallel to add() order). May be called after step() to finish a
  /// partially run campaign.
  std::vector<ProbeStats> run();

  /// Process exactly one due event (one probe, round boundary, or source
  /// retirement). Returns false when every source is exhausted. Campaigns
  /// are pausable/resumable at any step boundary.
  bool step();

  /// True when every registered source has been driven to exhaustion.
  [[nodiscard]] bool done() const { return queue_.empty(); }

  /// Per-source stats so far, parallel to add() order (complete only for
  /// exhausted sources' private counters).
  [[nodiscard]] std::vector<ProbeStats> stats() const;

  /// Convenience: run a single source on `net` and return its stats.
  static ProbeStats run_one(simnet::Network& net, ProbeSource& source,
                            const Endpoint& endpoint, const PacingPolicy& pacing,
                            ResponseSink sink = {});

 private:
  struct Slot {
    std::uint64_t due_us;
    std::uint64_t seq;
    std::size_t member;
    bool operator>(const Slot& o) const {
      return due_us != o.due_us ? due_us > o.due_us : seq > o.seq;
    }
  };

  void schedule(std::size_t idx);

  simnet::Network& net_;
  std::vector<Pacer> pacers_;
  std::priority_queue<Slot, std::vector<Slot>, std::greater<Slot>> queue_;
  std::uint64_t seq_ = 0;
  // Every probe is encoded into this reused buffer, so the steady-state
  // emit path allocates nothing.
  simnet::Packet probe_buf_;
};

}  // namespace beholder6::campaign
