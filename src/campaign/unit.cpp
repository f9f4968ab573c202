#include "campaign/unit.hpp"

#include <algorithm>
#include <utility>

#include "netbase/dcheck.hpp"

namespace beholder6::campaign {

SplitFamily::SplitFamily(ProbeSource& source, std::uint64_t k)
    : whole_(&source) {
  if (k > 1) owned_ = source.split(k);
  // Epoch-coupled children all return their family's one barrier; a mixed
  // family would be a broken split() implementation.
  if (!owned_.empty()) barrier_ = owned_[0]->epoch_barrier();
  state_.assign(std::max<std::size_t>(1, owned_.size()), kActive);
  live_ = waiting_ = state_.size();
  if (barrier_ != nullptr) resumed_.reserve(state_.size());
}

std::span<const std::uint32_t> SplitFamily::arrive(std::size_t i,
                                                   bool exhausted) {
  B6_DCHECK(state_[i] == kActive, "split-family member arrived twice in "
                                   "one epoch — the barrier schedule broke");
  B6_DCHECK(exhausted || barrier_ != nullptr,
            "a free-running member parked at an epoch barrier");
  B6_DCHECK(waiting_ > 0, "more barrier arrivals than live family members");
  state_[i] = exhausted ? kExhausted : kParked;
  if (exhausted) --live_;
  if (--waiting_ != 0) return {};
  // Last arrival: every member is parked or exhausted, i.e. quiescent —
  // the single-threaded merge window of the EpochBarrier protocol.
  waiting_ = live_;
  resumed_.clear();
  if (barrier_ == nullptr) return {};
  barrier_->merge_epoch();
  for (std::uint32_t m = 0; m < state_.size(); ++m) {
    if (state_[m] != kParked) continue;
    state_[m] = kActive;
    member(m).epoch_resume();
    resumed_.push_back(m);
  }
  return resumed_;
}

}  // namespace beholder6::campaign
