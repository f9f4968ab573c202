// campaign/unit.hpp — the member machinery both campaign front ends share.
//
// ParallelCampaignRunner (parallel.hpp) and CampaignReactor (reactor.hpp)
// drive sources the same way; this header holds the one copy of each
// piece: SplitFamily (a source whole or split, with its EpochBarrier
// bookkeeping) and MemberRunner with make_replica (the member builder: a
// CampaignRunner over a replica on the shared route snapshot). Internal to
// the campaign layer: neither front end's public API names these types.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "campaign/runner.hpp"

namespace beholder6::campaign {

/// One split family: a source run whole, or the children of its split(k),
/// owned here and epoch-coupled if they return an EpochBarrier. The family
/// keeps the barrier's arrival bookkeeping: each live member arrives once
/// per epoch, by parking at its epoch boundary or by exhausting, and the
/// last arrival runs merge_epoch() with every member quiescent. Not
/// thread-safe: the caller serializes arrivals (the parallel pool's mutex,
/// or the reactor's serial loop).
class SplitFamily {
 public:
  /// Members: `source` whole when `k` <= 1 or the source is unsplittable,
  /// else the children of `source.split(k)`.
  SplitFamily(ProbeSource& source, std::uint64_t k);

  [[nodiscard]] std::size_t size() const { return state_.size(); }
  [[nodiscard]] ProbeSource& member(std::size_t i) const {
    return owned_.empty() ? *whole_ : *owned_[i];
  }
  /// The children's shared barrier; null for a free-running family.
  [[nodiscard]] EpochBarrier* barrier() const { return barrier_; }
  /// Members not yet exhausted.
  [[nodiscard]] std::size_t live() const { return live_; }
  /// Neither parked at the barrier nor exhausted.
  [[nodiscard]] bool active(std::size_t i) const {
    return state_[i] == kActive;
  }
  /// Member `i` has closed its epoch and must arrive parked (never true in
  /// a free-running family).
  [[nodiscard]] bool at_barrier(std::size_t i) const {
    return barrier_ != nullptr && member(i).epoch_paused();
  }

  /// Member `i` arrives, `exhausted` or parked. The epoch's last arrival
  /// runs merge_epoch() — even as the last exhaustion, which publishes a
  /// Doubletree family's final stop set — clears the parked members'
  /// pauses and returns their indexes in member order, for the caller to
  /// reschedule; any other arrival returns an empty span.
  std::span<const std::uint32_t> arrive(std::size_t i, bool exhausted);

 private:
  enum State : std::uint8_t { kActive, kParked, kExhausted };

  ProbeSource* whole_;                               // run when unsplit
  std::vector<std::unique_ptr<ProbeSource>> owned_;  // split children
  EpochBarrier* barrier_ = nullptr;
  std::vector<State> state_;
  std::size_t live_ = 0;     // members not yet exhausted
  std::size_t waiting_ = 0;  // live members yet to arrive this epoch
  std::vector<std::uint32_t> resumed_;
};

/// A Network replica of (`topo`, `params`) reading the shared read-only
/// route `snapshot` (null: none).
[[nodiscard]] std::unique_ptr<simnet::Network> make_replica(
    const simnet::Topology& topo,
    const std::shared_ptr<const simnet::NetworkParams>& params,
    const std::shared_ptr<const simnet::RouteCache>& snapshot);

/// One family member's execution state: a CampaignRunner over a Network
/// replica that is either owned or borrowed (a parallel worker's arena).
struct MemberRunner {
  std::unique_ptr<simnet::Network> own_net;  ///< null while borrowing
  simnet::Network* net = nullptr;            ///< the replica driven
  std::unique_ptr<CampaignRunner> runner;    ///< borrows *net

  /// The member builder: drive `source` over `*borrowed` or, if that is
  /// null, over an owned make_replica(topo, params, snapshot), delivering
  /// replies to the front end's recording `sink`.
  void start(const simnet::Topology& topo,
             const std::shared_ptr<const simnet::NetworkParams>& params,
             const std::shared_ptr<const simnet::RouteCache>& snapshot,
             simnet::Network* borrowed, ProbeSource& source,
             const Endpoint& endpoint, const PacingPolicy& pacing,
             ResponseSink sink);

  /// Drop the runner, then the replica if owned.
  void release() {
    runner.reset();
    own_net.reset();
    net = nullptr;
  }
};

}  // namespace beholder6::campaign
