// topology/collector.hpp — reply stream → traces, interfaces, statistics.
//
// Yarrp6 decouples probing from topology construction: replies to one
// target arrive in no particular order, interleaved with every other
// target's. The TraceCollector keeps that decoupling. on_reply appends each
// reply to a log and updates only what the campaign must see live: the
// unique interface addresses (sources of Time Exceeded), the reply counters
// and the discovery curve (Figure 7). The first read of a derived view
// folds the log into per-target traces and the campaign-level aggregates
// the paper reports (Table 7, Figure 6): reached-target rate, path lengths,
// responders, and the EUI-64 interface analysis with path offsets.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "netbase/flat_map.hpp"
#include "netbase/huge_alloc.hpp"
#include "netbase/ipv6.hpp"
#include "wire/probe.hpp"

namespace beholder6::topology {

/// One responding hop of a reassembled trace.
struct TraceHop {
  Ipv6Addr iface;
  wire::Icmp6Type type = wire::Icmp6Type::kTimeExceeded;
  std::uint8_t code = 0;
  std::uint32_t rtt_us = 0;
};

/// The hops of one trace, keyed and iterated by originating TTL: a
/// read-only view of a slice of the owning collector's hop array, sorted by
/// TTL. It stays valid until the collector is destroyed or a read folds in
/// replies fed after it.
class TtlHopMap {
 public:
  using value_type = std::pair<std::uint8_t, TraceHop>;
  using const_iterator = const value_type*;

  TtlHopMap() = default;

  [[nodiscard]] const_iterator find(std::uint8_t ttl) const {
    const auto it = std::lower_bound(
        begin(), end(), ttl,
        [](const value_type& e, std::uint8_t t) { return e.first < t; });
    return it != end() && it->first == ttl ? it : end();
  }
  [[nodiscard]] bool contains(std::uint8_t ttl) const { return find(ttl) != end(); }

  [[nodiscard]] const_iterator begin() const { return first_; }
  [[nodiscard]] const_iterator end() const { return first_ + n_; }
  [[nodiscard]] std::size_t size() const { return n_; }
  [[nodiscard]] bool empty() const { return n_ == 0; }

 private:
  friend class TraceCollector;
  TtlHopMap(const value_type* first, std::size_t n)
      : first_(first), n_(static_cast<std::uint32_t>(n)) {}

  const value_type* first_ = nullptr;
  std::uint32_t n_ = 0;
};

/// A reassembled trace toward one target. Hops are keyed by originating
/// TTL; missing TTLs are unresponsive hops.
struct Trace {
  Ipv6Addr target;
  TtlHopMap hops;
  bool reached = false;  // some response came from the target itself

  /// Highest TTL that drew a Time Exceeded (the measured path length).
  [[nodiscard]] std::uint8_t path_len() const {
    std::uint8_t n = 0;
    for (const auto& [ttl, hop] : hops)
      if (hop.type == wire::Icmp6Type::kTimeExceeded) n = std::max(n, ttl);
    return n;
  }

  /// Ordered responding-hop interfaces (by TTL), Time Exceeded hops only.
  [[nodiscard]] std::vector<Ipv6Addr> router_hops() const {
    std::vector<Ipv6Addr> out;
    for (const auto& [ttl, hop] : hops)
      if (hop.type == wire::Icmp6Type::kTimeExceeded) out.push_back(hop.iface);
    return out;
  }
};

/// Samples of the discovery curve for Figure 7.
struct DiscoverySample {
  std::uint64_t probes;
  std::uint64_t unique_interfaces;
};

// Threading: TraceCollector is deliberately unsynchronized
// (thread-compatible, like std containers), and the first derived read
// after an on_reply is a write: it folds the log. During a parallel
// campaign every instance is private to one worker; instances cross
// threads only at the pool-join edge inside ParallelCampaignRunner::run,
// and every read happens after it, on one thread. That is why the Clang
// thread-safety pass (netbase/annotated_mutex.hpp) has no annotations
// here: there is no guarded state, and the join is the publication point.
// Sharing one collector across live workers would be a bug the *sink
// wiring* must prevent — see prober/multivantage.cpp for the
// worker-private pattern.
class TraceCollector {
 public:
  /// Feed one decoded reply. `probes_so_far` timestamps the discovery curve.
  /// Appends the reply to the log; traces are built at the next read.
  void on_reply(const wire::DecodedReply& reply, std::uint64_t probes_so_far);

  /// Convenience sink binding (keeps a probe counter internally if the
  /// prober's count is not at hand).
  void on_reply(const wire::DecodedReply& reply) { on_reply(reply, ++auto_counter_); }

  // Derived views: the first read after an on_reply folds the pending
  // replies in and releases them. A trace's first response per TTL wins
  // (arrival order, across folds too), and any reply from the target
  // itself marks it reached. Folding invalidates references into an
  // earlier traces().

  [[nodiscard]] const netbase::FlatMap<Ipv6Addr, Trace, Ipv6AddrHash>& traces() const {
    fold();
    return folded_.traces;
  }
  /// Unique router interface addresses: sources of ICMPv6 Time Exceeded
  /// (the paper's headline metric). Live: no fold.
  [[nodiscard]] const netbase::FlatSet<Ipv6Addr, Ipv6AddrHash>& interfaces() const {
    return interfaces_;
  }
  /// Sources of any ICMPv6 response (interfaces ∪ hosts ∪ gateways).
  [[nodiscard]] const netbase::FlatSet<Ipv6Addr, Ipv6AddrHash>& responders() const {
    fold();
    return responders_;
  }
  [[nodiscard]] std::uint64_t non_te_responses() const { return non_te_; }
  [[nodiscard]] std::uint64_t te_responses() const { return te_; }

  /// Discovery curve sampled at (roughly) logarithmic probe counts. Live.
  [[nodiscard]] const std::vector<DiscoverySample>& discovery_curve() const {
    return curve_;
  }

  /// Fraction of traces whose target itself responded.
  [[nodiscard]] double reached_fraction() const;

  /// Percentile of per-trace path lengths (0.5 = median, 0.95 = 95th).
  [[nodiscard]] std::uint8_t path_len_percentile(double q) const;

  /// EUI-64 interface analysis (Table 7's right columns): count of EUI-64
  /// interfaces and the distribution of their offsets from the end of path
  /// (0 = last hop, negative = earlier).
  struct Eui64Report {
    std::size_t eui64_interfaces = 0;
    double frac_of_interfaces = 0.0;
    int offset_median = 0;
    int offset_p5 = 0;  // 5th percentile (most negative tail)
  };
  [[nodiscard]] Eui64Report eui64_report() const;

 private:
  /// One reply as the log keeps it.
  struct LoggedReply {
    Ipv6Addr target;
    Ipv6Addr responder;
    std::uint32_t rtt_us;
    std::uint8_t ttl;
    wire::Icmp6Type type;
    std::uint8_t code;
  };
  // Log storage gives its pages back when freed (netbase/huge_alloc.hpp):
  // the log is released while the traces built from it are allocated.
  using ReplyBuffer = std::vector<LoggedReply, netbase::PageReleasingAllocator<LoggedReply>>;

  /// The folded traces. Each trace's hops are a slice of `hops`, one array
  /// for the whole collector, which a move keeps. A copy would leave the
  /// views pointing into the original, so a collector moves but never
  /// copies.
  struct Folded {
    netbase::FlatMap<Ipv6Addr, Trace, Ipv6AddrHash> traces;
    std::vector<TtlHopMap::value_type> hops;

    Folded() = default;
    Folded(Folded&&) noexcept = default;
    Folded& operator=(Folded&&) noexcept = default;
  };

  void grow_log();
  void fold() const;

  // The reply log, in arrival order: chunks of at most kChunk replies, so
  // appending never moves what is logged. Empty once folded.
  static constexpr std::size_t kChunk = 4096;
  mutable std::vector<ReplyBuffer> log_;
  mutable Folded folded_;
  mutable netbase::FlatSet<Ipv6Addr, Ipv6AddrHash> responders_;
  // Open-addressing table: interface discovery is once-per-reply hot, and
  // a node-based set costs an allocation plus a pointer chase there.
  netbase::FlatSet<Ipv6Addr, Ipv6AddrHash> interfaces_;
  std::vector<DiscoverySample> curve_;
  std::uint64_t te_ = 0;
  std::uint64_t non_te_ = 0;
  std::uint64_t auto_counter_ = 0;
  std::uint64_t next_sample_ = 64;
};

}  // namespace beholder6::topology
