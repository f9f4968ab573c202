#include "topology/collector.hpp"

#include <algorithm>
#include <bit>
#include <functional>

#include "netbase/eui64.hpp"
#include "netbase/rng.hpp"

namespace beholder6::topology {

void TraceCollector::on_reply(const wire::DecodedReply& reply,
                              std::uint64_t probes_so_far) {
  if (log_.empty() || log_.back().size() == log_.back().capacity()) grow_log();
  log_.back().push_back({reply.probe.target, reply.responder, reply.rtt_us,
                         reply.probe.ttl, reply.type, reply.code});
  if (reply.type == wire::Icmp6Type::kTimeExceeded) {
    ++te_;
    interfaces_.insert(reply.responder);
  } else {
    ++non_te_;
  }

  if (probes_so_far >= next_sample_) {
    curve_.push_back({probes_so_far, interfaces_.size()});
    next_sample_ = next_sample_ + std::max<std::uint64_t>(64, next_sample_ / 4);
  }
}

void TraceCollector::grow_log() {
  // Chunks double up to kChunk, so a small campaign's log stays small.
  const std::size_t n = log_.size();
  log_.emplace_back().reserve(n < 6 ? std::size_t{64} << n : kChunk);
}

TraceCollector::Folded::Folded(const Folded& o) : traces(o.traces), hops(o.hops) {
  // beholder6: lint-allow(unordered-iter): each view is re-pointed in
  // place; no order reaches a result
  for (auto& [target, tr] : traces)
    tr.hops.first_ = hops.data() + (tr.hops.first_ - o.hops.data());
}

void TraceCollector::fold() const {
  if (log_.empty()) return;
  std::size_t pending = 0;
  for (const auto& chunk : log_) pending += chunk.size();

  // Partition the log by target into buckets of about kChunk replies,
  // releasing each chunk once copied. A bucket keeps arrival order; it is
  // sorted and folded in cache, and released before the next, so the log
  // and the traces built from it never coexist in full.
  const std::size_t n_buckets = std::bit_ceil(std::max<std::size_t>(1, pending / kChunk));
  const auto bucket_of = [n_buckets](const Ipv6Addr& target) {
    return static_cast<std::size_t>(splitmix64(target.hi() ^ splitmix64(target.lo()))) &
           (n_buckets - 1);
  };
  std::vector<ReplyBuffer> buckets(n_buckets);
  for (auto& bucket : buckets) bucket.reserve(pending / n_buckets * 9 / 8);
  for (auto& chunk : log_) {
    for (const auto& r : chunk) buckets[bucket_of(r.target)].push_back(r);
    ReplyBuffer{}.swap(chunk);
  }
  log_ = {};

  // Responders: every Time Exceeded source is already in the live
  // interfaces_; the other replies' sources are added per reply below.
  // beholder6: lint-allow(unordered-iter): set union, membership only
  for (const auto& iface : interfaces_) responders_.insert(iface);

  // One slot per pending reply bounds the new hop array (it is exact
  // without duplicate replies), so every view written into it stays put.
  auto& [traces, old_hops] = folded_;
  std::vector<TtlHopMap::value_type> hops;
  hops.reserve(old_hops.size() + pending);

  // Each bucket sorts on (target, ttl, arrival): a trace's replies become
  // adjacent, in TTL order, with the first arrival per TTL first.
  struct SortKey {
    std::uint64_t hi, lo, ttl_arrival;
    auto operator<=>(const SortKey&) const = default;
  };
  std::vector<SortKey> keys;
  for (auto& bucket : buckets) {
    keys.clear();
    for (std::size_t i = 0; i < bucket.size(); ++i)
      keys.push_back({bucket[i].target.hi(), bucket[i].target.lo(),
                      std::uint64_t{bucket[i].ttl} << 32 | i});
    std::sort(keys.begin(), keys.end());
    for (std::size_t k = 0; k < keys.size();) {
      const SortKey head = keys[k];
      const Ipv6Addr target = bucket[head.ttl_arrival & 0xffffffff].target;
      Trace& tr = traces[target];
      tr.target = target;
      // An earlier fold's hops arrived first, so they win their TTLs.
      const TtlHopMap earlier = tr.hops;
      auto e = earlier.begin();
      const std::size_t first = hops.size();
      for (int last_ttl = -1; k < keys.size() && keys[k].hi == head.hi && keys[k].lo == head.lo;
           ++k) {
        const LoggedReply& r = bucket[keys[k].ttl_arrival & 0xffffffff];
        if (r.type != wire::Icmp6Type::kTimeExceeded) responders_.insert(r.responder);
        tr.reached |= r.responder == target;
        if (r.ttl == last_ttl) continue;  // a later reply to a TTL already kept
        last_ttl = r.ttl;
        for (; e != earlier.end() && e->first < r.ttl; ++e) hops.push_back(*e);
        if (e != earlier.end() && e->first == r.ttl) continue;
        hops.push_back({r.ttl, TraceHop{r.responder, r.type, r.code, r.rtt_us}});
      }
      hops.insert(hops.end(), e, earlier.end());
      tr.hops = TtlHopMap{hops.data() + first, hops.size() - first};
    }
    ReplyBuffer{}.swap(bucket);
  }

  // Traces no pending reply touched still view the old array: move their
  // hops over as they are.
  if (!old_hops.empty()) {
    const std::less<const TtlHopMap::value_type*> before;
    const auto* old_begin = old_hops.data();
    const auto* old_end = old_begin + old_hops.size();
    // beholder6: lint-allow(unordered-iter): visit order only lays out the
    // new hop array; every view is re-pointed at its own trace's hops
    for (auto& [target, tr] : traces) {
      if (before(tr.hops.begin(), old_begin) || !before(tr.hops.begin(), old_end)) continue;
      const std::size_t first = hops.size();
      hops.insert(hops.end(), tr.hops.begin(), tr.hops.end());
      tr.hops = TtlHopMap{hops.data() + first, hops.size() - first};
    }
  }
  old_hops = std::move(hops);  // a vector move keeps its buffer: views stay valid
}

double TraceCollector::reached_fraction() const {
  const auto& traces = this->traces();
  if (traces.empty()) return 0.0;
  std::size_t reached = 0;
  // beholder6: lint-allow(unordered-iter): integer sum, order independent
  for (const auto& [t, tr] : traces) reached += tr.reached;
  return static_cast<double>(reached) / static_cast<double>(traces.size());
}

std::uint8_t TraceCollector::path_len_percentile(double q) const {
  const auto& traces = this->traces();
  if (traces.empty()) return 0;
  std::vector<std::uint8_t> lens;
  lens.reserve(traces.size());
  // beholder6: lint-allow(unordered-iter): collected lengths are sorted on
  // the next line; table order cannot reach the percentile
  for (const auto& [t, tr] : traces) lens.push_back(tr.path_len());
  std::sort(lens.begin(), lens.end());
  const auto idx = std::min(lens.size() - 1,
                            static_cast<std::size_t>(q * static_cast<double>(lens.size())));
  return lens[idx];
}

TraceCollector::Eui64Report TraceCollector::eui64_report() const {
  Eui64Report rep;
  // beholder6: lint-allow(unordered-iter): integer count, order independent
  for (const auto& iface : interfaces_) rep.eui64_interfaces += is_eui64(iface);
  rep.frac_of_interfaces =
      interfaces_.empty()
          ? 0.0
          : static_cast<double>(rep.eui64_interfaces) / static_cast<double>(interfaces_.size());

  // Offsets: for every trace, every EUI-64 TE hop contributes
  // (its TTL − path length), 0 meaning it was the last hop on path.
  std::vector<int> offsets;
  // beholder6: lint-allow(unordered-iter): offsets are sorted before the
  // percentile reads below; table order cannot leak
  for (const auto& [t, tr] : traces()) {
    const int plen = tr.path_len();
    if (plen == 0) continue;
    for (const auto& [ttl, hop] : tr.hops) {
      if (hop.type != wire::Icmp6Type::kTimeExceeded) continue;
      if (!is_eui64(hop.iface)) continue;
      offsets.push_back(static_cast<int>(ttl) - plen);
    }
  }
  if (!offsets.empty()) {
    std::sort(offsets.begin(), offsets.end());
    rep.offset_median = offsets[offsets.size() / 2];
    rep.offset_p5 = offsets[static_cast<std::size_t>(
        0.05 * static_cast<double>(offsets.size()))];
  }
  return rep;
}

}  // namespace beholder6::topology
