// tests/support/throwing_source.hpp — a ProbeSource that fails mid-run.
// The worker-failure tests of the parallel backend and the reactor drive
// it next to healthy campaigns: a failure must surface from run()/drain()
// as the source's exception, never as a hang or a silent loss.
#pragma once

#include <cstdint>
#include <stdexcept>

#include "campaign/probe_source.hpp"

namespace beholder6::test_support {

/// Probes one target at TTLs 1..8 round-robin, `probes` probes in all —
/// unless `throw_after` is nonzero, in which case next() throws
/// std::runtime_error once that many probes have gone out.
class ThrowingSource final : public campaign::ProbeSource {
 public:
  ThrowingSource(const Ipv6Addr& target, std::uint64_t probes,
                 std::uint64_t throw_after)
      : target_(target), probes_(probes), throw_after_(throw_after) {}

  campaign::Poll next(std::uint64_t now_us) override {
    (void)now_us;
    if (throw_after_ != 0 && sent_ == throw_after_)
      throw std::runtime_error{"probe source failed mid-run"};
    if (sent_ == probes_) return campaign::Poll::exhausted();
    ++sent_;
    return campaign::Poll::emit(
        {target_, static_cast<std::uint8_t>(1 + sent_ % 8)});
  }

 private:
  Ipv6Addr target_;
  std::uint64_t probes_;
  std::uint64_t throw_after_;
  std::uint64_t sent_ = 0;
};

}  // namespace beholder6::test_support
