// seeds/entropy.hpp — Entropy/IP-style address structure analysis and
// generation (Foremski, Plonka, Berger — IMC 2016; cited by the paper as a
// target-generation method alongside 6Gen).
//
// The model measures per-nybble Shannon entropy across a hitlist, segments
// the 32 nybbles into runs of similar entropy (constant / low-entropy
// "dictionary" / high-entropy "random" segments), and generates candidate
// addresses by sampling each segment from its observed value distribution.
// Compared with 6Gen's range clustering, the entropy model captures
// positional structure (e.g. "nybbles 16-19 are always 0, nybble 23 takes
// one of three values") and generalizes across the whole list rather than
// per-cluster.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <vector>

#include "netbase/ipv6.hpp"
#include "netbase/rng.hpp"
#include "target/seedlist.hpp"

namespace beholder6::seeds {

/// Per-nybble statistics over a hitlist.
struct NybbleStats {
  std::array<std::uint64_t, 16> counts{};
  /// Shannon entropy in bits (0 = constant, 4 = uniform).
  [[nodiscard]] double entropy() const;
  [[nodiscard]] std::uint64_t total() const;
};

/// A run of adjacent nybbles with homogeneous entropy character.
struct Segment {
  unsigned first = 0;  // nybble index, 0..31 (MSB-first)
  unsigned last = 0;   // inclusive
  enum class Kind : std::uint8_t {
    kConstant,  // entropy ~0: one observed value
    kValueSet,  // low entropy: a small dictionary of values
    kRandom,    // high entropy: effectively uniform
  } kind = Kind::kConstant;
  double mean_entropy = 0.0;
};

class EntropyModel {
 public:
  /// Fit the model to a list of addresses. Empty input yields an empty
  /// model that generates nothing.
  static EntropyModel fit(const std::vector<Ipv6Addr>& addrs);

  [[nodiscard]] const std::vector<Segment>& segments() const { return segments_; }

  /// Generate `count` candidate addresses: constant segments reproduce
  /// their value, value-set segments sample *joint* observed segment values
  /// (preserving intra-segment correlation), random segments draw uniform
  /// nybbles. Duplicates are possible; callers dedup downstream.
  [[nodiscard]] std::vector<Ipv6Addr> generate(std::size_t count, Rng rng) const;

  /// Generate as a SeedList for the standard target pipeline.
  [[nodiscard]] target::SeedList generate_seeds(std::size_t count, Rng rng,
                                                const std::string& name) const;

 private:
  std::vector<Segment> segments_;
  // Joint observed values per segment (by segment index): each entry is the
  // segment's nybble string packed into a u64 with its observation weight.
  std::vector<std::map<std::uint64_t, std::uint64_t>> segment_values_;
  std::size_t n_ = 0;
};

}  // namespace beholder6::seeds
