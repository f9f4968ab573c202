// simnet/route_cache.hpp — the Network's memo of resolved paths, laid out
// for DRAM and the TLB, not for generality.
//
// A cached route is consulted once per probe in random target order over
// hundreds of thousands of /64 cells, so the layout is shaped around
// memory latency and a structural fact of the synthetic Internet: hop
// sequences are massively shared. Every target behind one PoP sees the
// same premise chain, inter-AS core, borders and region/pop/aggregation
// descent — only the terminal gateway hop is private to the /64. The
// cache therefore stores per cell exactly one 64-byte slot:
//
//   (key, terminal disposition, origin ASN, the gateway hop, and a
//    reference into a deduplicated *chain pool* of shared hop prefixes)
//
// One random probe = one cold cache line. The chain pool — thousands of
// distinct chains, not hundreds of thousands — stays small enough to live
// in cache and under a handful of TLB entries, and both arrays sit on
// 2 MB-page allocations (netbase::HugePageAllocator) so lookups skip the
// page-walk tax where the kernel cooperates. benchmark/run.py is the
// regression harness for all of this.
//
// Only what the inject path consumes is kept (interface, router id,
// terminal disposition, origin ASN); Path stays the oracle-facing type.
// Determinism: lookups are pure, chains dedup by full content comparison
// (never by hash alone), insertion order is the probe order, and eviction
// clears the whole cache — replies can never depend on layout.
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <vector>

#include "netbase/attr.hpp"
#include "netbase/dcheck.hpp"
#include "netbase/flat_map.hpp"
#include "netbase/huge_alloc.hpp"
#include "netbase/rng.hpp"
#include "simnet/topology.hpp"

namespace beholder6::simnet {

/// Route-cache key: the complete functional dependencies of
/// Topology::path. `meta` packs (vantage index, protocol, flow_hash %
/// kEcmpVariantPeriod).
struct RouteKey {
  std::uint64_t cell = 0;  // target's upper 64 bits (/64 routing cell)
  std::uint64_t meta = 0;
  friend bool operator==(const RouteKey&, const RouteKey&) = default;
};

/// The one RouteKey hash: RouteCache's probe sequence and every FlatSet of
/// keys (route warm-up dedup) use it.
struct RouteKeyHash {
  std::size_t operator()(const RouteKey& k) const {
    return static_cast<std::size_t>(splitmix64(k.cell ^ splitmix64(k.meta)));
  }
};

class RouteCache {
 public:
  /// What the inject path needs of one hop.
  struct CompactHop {
    Ipv6Addr iface;
    std::uint64_t router_id = 0;
  };

  /// A resolved route: a shared chain prefix plus an optional private
  /// terminal hop. Valid until the next insert() or clear().
  class Resolved {
   public:
    Resolved(const CompactHop* chain, std::uint32_t chain_len,
             const CompactHop& tail, bool has_tail, PathEnd end,
             std::uint8_t firewall_code, Asn dest_asn)
        : chain_(chain), chain_len_(chain_len), tail_(tail),
          has_tail_(has_tail), end_(end), firewall_code_(firewall_code),
          dest_asn_(dest_asn) {}

    [[nodiscard]] std::uint32_t n_hops() const { return chain_len_ + has_tail_; }
    [[nodiscard]] const CompactHop& hop(std::uint32_t i) const {
      return i < chain_len_ ? chain_[i] : tail_;
    }
    [[nodiscard]] PathEnd end() const { return end_; }
    [[nodiscard]] std::uint8_t firewall_code() const { return firewall_code_; }
    [[nodiscard]] Asn dest_asn() const { return dest_asn_; }

   private:
    const CompactHop* chain_;
    std::uint32_t chain_len_;
    CompactHop tail_;  // by value: it was read out of the slot's cache line
    bool has_tail_;
    PathEnd end_;
    std::uint8_t firewall_code_;
    Asn dest_asn_;
  };

  [[nodiscard]] std::size_t size() const { return n_entries_; }

  [[nodiscard]] std::optional<Resolved> find(const RouteKey& key) const {
    if (slots_.empty()) return std::nullopt;
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = RouteKeyHash{}(key) & mask;; i = (i + 1) & mask) {
      const Slot& s = slots_[i];
      if (s.meta == kVacant) return std::nullopt;
      if (s.meta == key.meta && s.cell == key.cell) return resolved(s);
    }
  }

  /// Memoize a freshly resolved path and return its view. Cold gate: this
  /// is the miss path (it only runs after Topology::path_into resolved
  /// the route), so it may allocate — B6_COLDPATH keeps it outlined as a
  /// named allowlisted node for tools/check_noalloc.py, off the hit path's
  /// hot text.
  B6_COLDPATH Resolved insert(const RouteKey& key, const Path& path) {
    // Double-inserting a key would leave two live slots for it, and which
    // one a probe hits would depend on probe history — the resolve path
    // must look up before it inserts. O(probe-chain) scan, so level 2.
    B6_DCHECK2(!find(key).has_value(),
               "RouteCache::insert of a key that is already cached");
    if (slots_.empty() || (n_entries_ + 1) * 4 > slots_.size() * 3) grow();
    Slot s;
    s.cell = key.cell;
    s.meta = key.meta;
    s.end = path.end;
    s.firewall_code = path.firewall_code;
    s.dest_asn = path.dest_asn;
    // A delivered path's last hop is the /64's private gateway; everything
    // before it (and every hop of non-delivered paths) is a chain shared
    // with the sibling cells of its PoP — dedup it.
    std::size_t chain_len = path.hops.size();
    if (path.end == PathEnd::kDelivered && chain_len > 0) {
      --chain_len;
      const auto& gw = path.hops.back();
      s.tail = {gw.iface, gw.router_id};
      s.has_tail = 1;
    }
    const auto [offset, len] = intern_chain(path.hops, chain_len);
    s.chain = offset;
    s.chain_len = len;
    place(s);
    ++n_entries_;
    return resolved(s);
  }

  /// Forget every route; keeps the table storage for reuse.
  void clear() {
    for (auto& s : slots_) s.meta = kVacant;
    chain_pool_.clear();
    chain_index_.clear();
    chain_recs_.clear();
    n_entries_ = 0;
  }

  /// Drop every entry whose cell matches (cell & mask) == base — the
  /// scoped invalidation ECMP re-convergence events use — and return how
  /// many were dropped. (base, mask) == (0, 0) matches everything and
  /// degrades to clear(). Open addressing cannot tombstone-free delete in
  /// place, so survivors are collected and re-placed: a cold event-path
  /// cost (it allocates a scratch vector — allowlisted in
  /// tools/check_noalloc.py), never a per-probe one. Interned chains of
  /// dropped entries stay in the pool until the next clear(); that leak is
  /// bounded by the chain pool's pre-invalidation size and costs memory,
  /// not correctness — surviving locators keep pointing at valid storage.
  B6_COLDPATH std::size_t invalidate_cells(std::uint64_t base,
                                           std::uint64_t mask) {
    if (n_entries_ == 0) return 0;
    if (mask == 0 && base == 0) {
      const std::size_t dropped = n_entries_;
      clear();
      return dropped;
    }
    std::vector<Slot> survivors;
    survivors.reserve(n_entries_);
    std::size_t dropped = 0;
    for (auto& s : slots_) {
      if (s.meta == kVacant) continue;
      if ((s.cell & mask) == base)
        ++dropped;
      else
        survivors.push_back(s);
      s.meta = kVacant;
    }
    n_entries_ = survivors.size();
    for (const auto& s : survivors) place(s);
    return dropped;
  }

 private:
  // One cache line per cell: key (16) + gateway hop (24) + chain locator
  // (6) + disposition (2) + ASN (4), padded to exactly one line by the
  // alignas so consecutive slots never straddle lines.
  struct alignas(64) Slot {
    std::uint64_t cell = 0;
    std::uint64_t meta = kVacant;
    CompactHop tail;
    std::uint32_t chain = 0;
    std::uint16_t chain_len = 0;
    std::uint8_t has_tail = 0;
    PathEnd end = PathEnd::kDelivered;
    std::uint8_t firewall_code = 1;
    Asn dest_asn = 0;
  };
  static constexpr std::uint64_t kVacant = ~std::uint64_t{0};  // meta never is

  /// Interned chain bookkeeping: hash → singly linked list of records, so
  /// equal-hash-different-content chains stay distinct (content compare).
  struct ChainRec {
    std::uint32_t offset = 0;
    std::uint32_t len = 0;
    std::int32_t next = -1;
  };

  [[nodiscard]] Resolved resolved(const Slot& s) const {
    return Resolved{chain_pool_.data() + s.chain, s.chain_len, s.tail,
                    s.has_tail != 0, s.end, s.firewall_code, s.dest_asn};
  }

  std::pair<std::uint32_t, std::uint16_t> intern_chain(
      const std::vector<Hop>& hops, std::size_t len) {
    std::uint64_t h = 0x9e3779b97f4a7c15ULL ^ len;
    for (std::size_t i = 0; i < len; ++i)
      h = splitmix64(h ^ hops[i].router_id ^ hops[i].iface.lo() ^
                     splitmix64(hops[i].iface.hi()));
    auto matches = [&](const ChainRec& rec) {
      if (rec.len != len) return false;
      for (std::size_t i = 0; i < len; ++i) {
        const auto& c = chain_pool_[rec.offset + i];
        if (c.iface != hops[i].iface || c.router_id != hops[i].router_id)
          return false;
      }
      return true;
    };
    if (const auto it = chain_index_.find(h); it != chain_index_.end()) {
      for (std::int32_t r = it->second; r != -1; r = chain_recs_[static_cast<std::size_t>(r)].next) {
        const auto& rec = chain_recs_[static_cast<std::size_t>(r)];
        if (matches(rec))
          return {rec.offset, static_cast<std::uint16_t>(rec.len)};
      }
    }
    ChainRec rec;
    rec.offset = static_cast<std::uint32_t>(chain_pool_.size());
    rec.len = static_cast<std::uint32_t>(len);
    for (std::size_t i = 0; i < len; ++i)
      chain_pool_.push_back({hops[i].iface, hops[i].router_id});
    const auto rec_idx = static_cast<std::int32_t>(chain_recs_.size());
    auto [it, fresh] = chain_index_.emplace(h, rec_idx);
    if (!fresh) {
      rec.next = it->second;
      it->second = rec_idx;
    }
    chain_recs_.push_back(rec);
    return {rec.offset, static_cast<std::uint16_t>(rec.len)};
  }

  void place(const Slot& s) {
    B6_DCHECK(n_entries_ < slots_.size(),
              "RouteCache::place on a full table — the grow() threshold "
              "was bypassed and the probe loop below cannot terminate");
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = RouteKeyHash{}({s.cell, s.meta}) & mask;
    while (slots_[i].meta != kVacant) i = (i + 1) & mask;
    slots_[i] = s;
  }

  using SlotVec = std::vector<Slot, netbase::HugePageAllocator<Slot>>;
  using HopVec = std::vector<CompactHop, netbase::HugePageAllocator<CompactHop>>;

  B6_COLDPATH void grow() {
    SlotVec old = std::move(slots_);
    slots_.assign(old.empty() ? 1024 : old.size() * 2, Slot{});
    for (const auto& s : old)
      if (s.meta != kVacant) place(s);
  }

  SlotVec slots_;
  HopVec chain_pool_;                                // shared hop prefixes
  netbase::FlatMap<std::uint64_t, std::int32_t> chain_index_;  // hash → rec list
  std::vector<ChainRec> chain_recs_;
  std::size_t n_entries_ = 0;
};

}  // namespace beholder6::simnet
