// campaign/runner.hpp — the event-driven scheduling core.
//
// One CampaignRunner drives any number of ProbeSources over one
// simnet::Network. Each source is an event stream: the runner keeps a
// min-heap of (due virtual time, sequence) send slots, pops the earliest,
// advances the shared virtual clock to it, polls the owning source, emits
// the probe (encode → inject → decode → dispatch) and reschedules the
// source per its pacing policy. With one source this reduces exactly to
// the classic prober loop (probe, advance, probe, ...); with several it
// interleaves them in virtual time, which is what makes multi-vantage and
// mixed-protocol campaigns first-class scenarios rather than per-prober
// reimplementations.
//
// The runner owns the per-campaign ProbeStats: probes sent, fills, replies
// (instance-filtered), elapsed virtual time; sources contribute their
// private counters via ProbeSource::finish().
//
// Determinism: everything is a pure function of (sources, endpoints,
// pacing, network). Ties in the heap resolve by schedule order, so equal
// -pps sources interleave round-robin in add() order.
#pragma once

#include <cstdint>
#include <optional>
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

/// Decode each raw reply at virtual time `now_us`, filter on the endpoint's
/// instance id, and hand survivors to `on_reply`. Returns true if at least
/// one reply passed the filter. Templated on the callback so hot paths pay
/// no std::function construction per probe. The span may view the network's
/// reply pool, so `on_reply` must not inject into that network.
template <typename ReplyFn>
bool dispatch_replies(std::span<const simnet::Packet> replies,
                      const Endpoint& endpoint, std::uint64_t now_us,
                      ReplyFn&& on_reply) {
  bool answered = false;
  for (const auto& r : replies) {
    const auto dec = wire::decode_reply(r, static_cast<std::uint32_t>(now_us));
    if (!dec || dec->probe.instance != endpoint.instance) continue;
    answered = true;
    on_reply(*dec);
  }
  return answered;
}

/// The event-driven scheduling core: drives any number of ProbeSources
/// over one simnet::Network from a min-heap of (due virtual time, sequence)
/// send slots, owning pacing, encode/inject, reply decode + dispatch, and
/// per-campaign ProbeStats. Deterministic: results are a pure function of
/// (sources, endpoints, pacing, network); heap ties resolve in add() order.
/// One runner is single-threaded by design — parallelism lives a layer up,
/// in ParallelCampaignRunner, which runs one of these per work unit.
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

  /// The virtual due time of the next pending send slot (the heap head), or
  /// nullopt once every source is exhausted. This is the seam that exposes
  /// the step loop to a layer above: CampaignReactor maps each tenant
  /// runner's local due time onto its own global clock and pops the
  /// earliest slot across tenants, so many runners interleave in one
  /// virtual order without the runner knowing it has siblings.
  [[nodiscard]] std::optional<std::uint64_t> next_due_us() const {
    if (queue_.empty()) return std::nullopt;
    return queue_.top().due_us;
  }

  /// Stats so far (complete only for exhausted sources' private counters).
  [[nodiscard]] const std::vector<ProbeStats>& stats() const { return stats_; }

  /// Convenience: run a single source on `net` and return its stats.
  static ProbeStats run_one(simnet::Network& net, ProbeSource& source,
                            const Endpoint& endpoint, const PacingPolicy& pacing,
                            ResponseSink sink = {});

 private:
  struct Member {
    ProbeSource* source = nullptr;
    Endpoint endpoint;
    PacingPolicy pacing;
    ResponseSink sink;
    double gap_exact_us = 0.0;       // ideal per-probe budget, 1e6/pps
    double pace_carry = 0.0;         // Bresenham remainder, in [0, 1)
    std::uint64_t due_us = 0;        // next send slot
    std::uint64_t start_us = 0;
    std::uint64_t round_sent = 0;    // burst pacing: probes this round
    bool begun = false;
  };

  struct Slot {
    std::uint64_t due_us;
    std::uint64_t seq;
    std::size_t member;
    bool operator>(const Slot& o) const {
      return due_us != o.due_us ? due_us > o.due_us : seq > o.seq;
    }
  };

  void schedule(std::size_t idx);
  void emit(Member& m, ProbeStats& stats, const Probe& probe);

  simnet::Network& net_;
  std::vector<Member> members_;
  std::vector<ProbeStats> stats_;
  std::priority_queue<Slot, std::vector<Slot>, std::greater<Slot>> queue_;
  std::uint64_t seq_ = 0;
  // Per-runner scratch: every probe is encoded into this reused buffer, so
  // the steady-state emit path allocates nothing.
  simnet::Packet probe_buf_;
};

}  // namespace beholder6::campaign
