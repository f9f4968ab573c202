// campaign/unit.hpp — the member machinery both campaign front ends share.
//
// ParallelCampaignRunner (parallel.hpp) and CampaignReactor (reactor.hpp)
// drive sources the same way: each family member is one Pacer
// (runner.hpp) over a Network replica. This header holds the piece
// of that they share: SplitFamily, a source whole or split, with its
// EpochBarrier bookkeeping. Internal to the campaign layer: neither front
// end's public API names it.
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

}  // namespace beholder6::campaign
