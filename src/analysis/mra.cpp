#include "analysis/mra.hpp"

#include <algorithm>

namespace beholder6::analysis {

MraAnalysis::MraAnalysis(std::vector<Ipv6Addr> addrs) : addrs_(std::move(addrs)) {
  std::sort(addrs_.begin(), addrs_.end());
  addrs_.erase(std::unique(addrs_.begin(), addrs_.end()), addrs_.end());
}

std::vector<Aggregate> MraAnalysis::aggregates(unsigned plen) const {
  std::vector<Aggregate> out;
  for (const auto& a : addrs_) {
    const Prefix p{a, plen};
    if (out.empty() || out.back().prefix != p)
      out.push_back(Aggregate{p, 1});
    else
      ++out.back().count;
  }
  return out;
}

std::size_t MraAnalysis::aggregate_count(unsigned plen) const {
  std::size_t n = 0;
  const Ipv6Addr* prev = nullptr;
  for (const auto& a : addrs_) {
    if (!prev || prev->common_prefix_len(a) < plen) ++n;
    prev = &a;
  }
  return n;
}

std::vector<Aggregate> MraAnalysis::densest(unsigned plen, std::size_t n) const {
  auto all = aggregates(plen);
  std::stable_sort(all.begin(), all.end(),
                   [](const Aggregate& x, const Aggregate& y) {
                     return x.count > y.count;
                   });
  if (all.size() > n) all.resize(n);
  return all;
}

MraAnalysis::ClassCounts MraAnalysis::class_counts(unsigned plen) const {
  ClassCounts c;
  for (const auto& agg : aggregates(plen)) {
    if (agg.count == 1)
      ++c.isolated;
    else if (agg.count < 16u)
      c.sparse += agg.count;
    else
      c.dense += agg.count;
  }
  return c;
}

}  // namespace beholder6::analysis
