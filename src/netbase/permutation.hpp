// netbase/permutation.hpp — keyed random permutation over [0, n).
//
// Yarrp's core trick: iterate the (target × TTL) probe space in a keyed
// pseudo-random order without storing it. We implement a balanced Feistel
// network over the smallest even-bit-width domain covering n, and
// cycle-walk values that land outside [0, n). Every value in [0, n) is
// visited exactly once, so the prober needs no per-probe state at all.
#pragma once

#include <cstdint>
#include <stdexcept>

#include "netbase/rng.hpp"

namespace beholder6 {

/// A keyed bijection over [0, n). Deterministic in (key, n).
class Permutation {
 public:
  /// n must be >= 1; key selects one of 2^64 permutations.
  Permutation(std::uint64_t n, std::uint64_t key) : n_(n) {
    if (n == 0) throw std::invalid_argument("Permutation: empty domain");
    // Domain 2^(2*half_bits_) >= n with the smallest such half width (>=1).
    half_bits_ = 1;
    while ((half_bits_ < 32) && ((1ULL << (2 * half_bits_)) < n)) ++half_bits_;
    for (unsigned r = 0; r < kRounds; ++r)
      round_key_[r] = splitmix64(key ^ (0x517cc1b727220a95ULL * (r + 1)));
  }

  [[nodiscard]] std::uint64_t size() const { return n_; }

  /// Map index i in [0, n) to its permuted position in [0, n).
  [[nodiscard]] std::uint64_t map(std::uint64_t i) const {
    if (i >= n_) throw std::out_of_range("Permutation::map");
    std::uint64_t v = encrypt(i);
    while (v >= n_) v = encrypt(v);  // cycle-walk back into the domain
    return v;
  }

 private:
  static constexpr unsigned kRounds = 4;

  [[nodiscard]] std::uint64_t feistel_f(std::uint64_t half, unsigned round) const {
    return splitmix64(half ^ round_key_[round]) & mask();
  }

  [[nodiscard]] std::uint64_t mask() const { return (1ULL << half_bits_) - 1; }

  [[nodiscard]] std::uint64_t encrypt(std::uint64_t x) const {
    std::uint64_t l = x >> half_bits_, r = x & mask();
    for (unsigned i = 0; i < kRounds; ++i) {
      const std::uint64_t nl = r;
      r = l ^ feistel_f(r, i);
      l = nl;
    }
    return (l << half_bits_) | r;
  }

  std::uint64_t n_;
  unsigned half_bits_;
  std::uint64_t round_key_[kRounds]{};
};

}  // namespace beholder6
