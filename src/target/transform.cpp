#include "target/transform.hpp"

#include <algorithm>

#include "netbase/flat_map.hpp"

namespace beholder6::target {

SeedList transform_zn(const SeedList& in, unsigned zn) {
  if (zn < 1) zn = 1;
  if (zn > 64) zn = 64;
  SeedList out;
  out.name = in.name + "-z" + std::to_string(zn);
  // zn <= 64, so a /zn base is told apart by its high half alone.
  netbase::FlatSet<std::uint64_t> seen;
  seen.reserve(in.entries.size());
  auto push = [&](const Ipv6Addr& base) {
    const Prefix p{base, zn};
    if (seen.insert(p.base().hi()).second) out.entries.push_back(p);
  };
  for (const auto& e : in.entries) {
    if (e.len() >= zn) {
      push(e.base());
      continue;
    }
    // Expansion: cover the aggregate with /zn subnets. The subnet index
    // occupies bits [e.len(), zn) of the high half; when the aggregate holds
    // more than kMaxExpandPerEntry subnets, sample it with an even stride
    // (both counts are powers of two, so the stride is exact; a sub-/1
    // entry samples the aggregate's lower half to stay representable).
    const unsigned extra = zn - e.len();
    const std::uint64_t slots = 1ULL << std::min(extra, 63u);
    const std::uint64_t count = std::min<std::uint64_t>(slots, kMaxExpandPerEntry);
    const std::uint64_t stride = slots / count;
    const std::uint64_t base_hi = e.base().hi();
    for (std::uint64_t j = 0; j < count; ++j)
      push(Ipv6Addr::from_halves(base_hi | ((j * stride) << (64 - zn)), 0));
  }
  return out;
}

namespace {

/// Publish the most specific prefixes under [first, last) (sorted /64 high
/// halves within `base_hi`/`len`) that each cover >= k members; space whose
/// member count is below k is suppressed entirely.
void publish(const std::uint64_t* first, const std::uint64_t* last,
             std::uint64_t base_hi, unsigned len, unsigned k,
             std::vector<Prefix>& out) {
  const auto count = static_cast<std::uint64_t>(last - first);
  if (count < k) return;
  if (len >= 64) {
    out.emplace_back(Ipv6Addr::from_halves(base_hi, 0), 64);
    return;
  }
  const std::uint64_t mid_hi = base_hi | (1ULL << (63 - len));
  const auto* mid = std::lower_bound(first, last, mid_hi);
  const auto left = static_cast<std::uint64_t>(mid - first);
  const auto right = count - left;
  if (left >= k && right >= k) {
    publish(first, mid, base_hi, len + 1, k, out);
    publish(mid, last, mid_hi, len + 1, k, out);
  } else {
    out.emplace_back(Ipv6Addr::from_halves(base_hi, 0), len);
  }
}

}  // namespace

std::vector<Prefix> KipAggregator::aggregate() const {
  std::vector<std::uint64_t> sorted(hi64s_.begin(), hi64s_.end());
  std::vector<Prefix> out;
  // Group by /48 and aggregate within each group independently.
  std::size_t i = 0;
  while (i < sorted.size()) {
    const std::uint64_t site = sorted[i] & ~0xffffULL;  // covering /48
    std::size_t j = i;
    while (j < sorted.size() && (sorted[j] & ~0xffffULL) == site) ++j;
    publish(sorted.data() + i, sorted.data() + j, site, 48, k_, out);
    i = j;
  }
  return out;
}

std::vector<unsigned> dpl_of(const std::vector<Ipv6Addr>& addrs) {
  std::vector<Ipv6Addr> sorted = addrs;
  std::sort(sorted.begin(), sorted.end());
  std::vector<unsigned> dpls;
  dpls.reserve(sorted.size());
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    unsigned cpl = 0;
    if (i > 0) cpl = std::max(cpl, sorted[i].common_prefix_len(sorted[i - 1]));
    if (i + 1 < sorted.size())
      cpl = std::max(cpl, sorted[i].common_prefix_len(sorted[i + 1]));
    dpls.push_back(sorted.size() < 2 ? 0 : std::min(cpl + 1, 128u));
  }
  return dpls;
}

std::vector<double> dpl_cdf(const std::vector<unsigned>& dpls) {
  std::vector<double> cdf(129, 0.0);
  if (dpls.empty()) return cdf;
  for (const auto d : dpls) ++cdf[std::min(d, 128u)];
  double acc = 0.0;
  for (auto& v : cdf) {
    acc += v;
    v = acc / static_cast<double>(dpls.size());
  }
  return cdf;
}

}  // namespace beholder6::target
