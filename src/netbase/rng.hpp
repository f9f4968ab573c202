// netbase/rng.hpp — deterministic PRNG used across the library.
//
// All stochastic behaviour in beholder6 (topology generation, seed sampling,
// permutation keys) is driven by SplitMix64/Xoshiro256** so campaigns are
// exactly reproducible from a single 64-bit seed.
#pragma once

#include <cstdint>

namespace beholder6 {

/// SplitMix64: stateless mix of a counter; used for key derivation and as
/// the seeding function for Xoshiro256**.
constexpr std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Xoshiro256**: a small fast PRNG with 256-bit state. Satisfies
/// UniformRandomBitGenerator so it can drive <random> distributions.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit constexpr Rng(std::uint64_t seed) {
    std::uint64_t x = seed;
    for (auto& w : s_) w = x = splitmix64(x);
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  constexpr result_type operator()() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform integer in [0, n). n must be > 0. Uses rejection to avoid bias.
  constexpr std::uint64_t below(std::uint64_t n) {
    const std::uint64_t limit = max() - max() % n;
    std::uint64_t v = (*this)();
    while (v >= limit) v = (*this)();
    return v % n;
  }

  /// Uniform double in [0, 1).
  constexpr double uniform() {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// True with probability p.
  constexpr bool chance(double p) { return uniform() < p; }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t s_[4]{};
};

}  // namespace beholder6
