#include "seeds/entropy.hpp"

#include <cmath>

namespace beholder6::seeds {

double NybbleStats::entropy() const {
  const auto n = total();
  if (n == 0) return 0.0;
  double h = 0.0;
  for (const auto c : counts) {
    if (c == 0) continue;
    const double p = static_cast<double>(c) / static_cast<double>(n);
    h -= p * std::log2(p);
  }
  return h;
}

std::uint64_t NybbleStats::total() const {
  std::uint64_t n = 0;
  for (const auto c : counts) n += c;
  return n;
}

namespace {

// Thresholds (bits/nybble) separating the three segment kinds.
constexpr double kConstantBelow = 0.05;
constexpr double kRandomAbove = 3.0;

/// Pack the nybbles [first, last] of `a` into a u64 key (<= 16 nybbles per
/// segment; longer runs are split by the segmentation pass).
std::uint64_t pack_segment(const Ipv6Addr& a, unsigned first, unsigned last) {
  std::uint64_t v = 0;
  for (unsigned i = first; i <= last; ++i) v = (v << 4) | a.nybble(i);
  return v;
}

}  // namespace

EntropyModel EntropyModel::fit(const std::vector<Ipv6Addr>& addrs) {
  EntropyModel model;
  model.n_ = addrs.size();
  if (addrs.empty()) return model;

  std::array<NybbleStats, 32> stats{};
  for (const auto& a : addrs)
    for (unsigned i = 0; i < 32; ++i) ++stats[i].counts[a.nybble(i)];

  auto kind_of = [](double h) {
    if (h <= kConstantBelow) return Segment::Kind::kConstant;
    if (h >= kRandomAbove) return Segment::Kind::kRandom;
    return Segment::Kind::kValueSet;
  };

  // Segment nybbles into runs of one kind, capped at 16 nybbles so joint
  // values pack into a u64.
  for (unsigned i = 0; i < 32;) {
    const auto kind = kind_of(stats[i].entropy());
    unsigned j = i;
    double sum = 0;
    while (j < 32 && kind_of(stats[j].entropy()) == kind && j - i < 16) {
      sum += stats[j].entropy();
      ++j;
    }
    Segment seg;
    seg.first = i;
    seg.last = j - 1;
    seg.kind = kind;
    seg.mean_entropy = sum / static_cast<double>(j - i);
    model.segments_.push_back(seg);
    i = j;
  }

  // Joint value dictionaries for constant and value-set segments.
  model.segment_values_.resize(model.segments_.size());
  for (std::size_t s = 0; s < model.segments_.size(); ++s) {
    if (model.segments_[s].kind == Segment::Kind::kRandom) continue;
    for (const auto& a : addrs)
      ++model.segment_values_[s][pack_segment(a, model.segments_[s].first,
                                              model.segments_[s].last)];
  }
  return model;
}

std::vector<Ipv6Addr> EntropyModel::generate(std::size_t count, Rng rng) const {
  std::vector<Ipv6Addr> out;
  if (n_ == 0 || count == 0) return out;
  out.reserve(count);
  for (std::size_t k = 0; k < count; ++k) {
    Ipv6Addr addr;
    for (std::size_t s = 0; s < segments_.size(); ++s) {
      const auto& seg = segments_[s];
      const unsigned width = seg.last - seg.first + 1;
      std::uint64_t value;
      if (seg.kind == Segment::Kind::kRandom) {
        value = rng() & ((width >= 16) ? ~0ULL : ((1ULL << (4 * width)) - 1));
      } else {
        // Weighted draw from the joint observed values.
        const auto& dict = segment_values_[s];
        std::uint64_t total = 0;
        for (const auto& [v, w] : dict) total += w;
        std::uint64_t pick = rng.below(total);
        value = dict.begin()->first;
        for (const auto& [v, w] : dict) {
          if (pick < w) {
            value = v;
            break;
          }
          pick -= w;
        }
      }
      for (unsigned i = 0; i < width; ++i) {
        const auto nyb = static_cast<std::uint8_t>(
            (value >> (4 * (width - 1 - i))) & 0xf);
        addr = addr.with_nybble(seg.first + i, nyb);
      }
    }
    out.push_back(addr);
  }
  return out;
}

target::SeedList EntropyModel::generate_seeds(std::size_t count, Rng rng,
                                              const std::string& name) const {
  target::SeedList list;
  list.name = name;
  for (const auto& a : generate(count, rng)) list.entries.emplace_back(a, 128);
  return list;
}

}  // namespace beholder6::seeds
