// Negative-compile check: a probe source keeps a span of its targets, so
// building one from a temporary vector must not compile. The ctest
// prober_rejects_temporary_targets compiles this file once per case:
// case 0 (a named vector) must compile, and each other case must fail on
// the deleted constructor.
#include <vector>

#include "prober/doubletree.hpp"
#include "prober/sequential.hpp"
#include "prober/yarrp6.hpp"

namespace {

std::vector<beholder6::Ipv6Addr> make_targets() { return {}; }

}  // namespace

void build_source() {
  using namespace beholder6::prober;
#if B6_CASE == 0
  const auto targets = make_targets();
  Yarrp6Source yarrp6{Yarrp6Config{}, targets};
  SequentialSource sequential{SequentialConfig{}, targets};
  StopSet stop_set;
  DoubletreeSource doubletree{DoubletreeConfig{}, targets, stop_set};
#elif B6_CASE == 1
  Yarrp6Source source{Yarrp6Config{}, make_targets()};
#elif B6_CASE == 2
  SequentialSource source{SequentialConfig{}, make_targets()};
#elif B6_CASE == 3
  StopSet stop_set;
  DoubletreeSource source{DoubletreeConfig{}, make_targets(), stop_set};
#endif
}
