// tests/support/drain.hpp — run a CampaignReactor to the end.
#pragma once

#include <cstddef>

#include "campaign/reactor.hpp"

namespace beholder6::test_support {

/// Step `reactor` until every campaign has retired; returns the slots run.
inline std::size_t drain(campaign::CampaignReactor& reactor) {
  std::size_t slots = 0;
  while (reactor.step()) ++slots;
  return slots;
}

}  // namespace beholder6::test_support
