// netbase/radix_trie.hpp — IPv6 prefix table with longest-prefix match.
// Used for the simulated BGP table (Topology::origin sits on the per-probe
// path), routed-space checks during target characterization, and
// ground-truth subnet lookup.
//
// Layout: the prefixes sorted by (base, length), which is a binary trie's
// pre-order, so for_each visits a covering prefix before what it covers;
// plus one open-addressing index from (masked address, length) to value.
// lpm probes the index once per distinct prefix length present, longest
// first: a few hash lookups instead of a walk of up to 128 nodes. The
// index mixes the masked 64-bit halves with splitmix64, not Ipv6AddrHash:
// that hash's byte-wise FNV costs more than a bit-per-level trie walk.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "netbase/flat_map.hpp"
#include "netbase/ipv6.hpp"
#include "netbase/prefix.hpp"
#include "netbase/rng.hpp"

namespace beholder6 {

/// A table mapping IPv6 prefixes to values of type V. Supports exact
/// insert/lookup, longest-prefix match, covering test and in-order
/// enumeration. Const members are safe to call from any number of threads;
/// insert is not, and it invalidates the value pointers handed out before.
template <typename V>
class RadixTrie {
 public:
  /// Insert (or overwrite) the value at `p`. Returns true if a new entry was
  /// created, false if an existing entry was overwritten.
  bool insert(const Prefix& p, V value) {
    auto [it, fresh] = index_.emplace(key_of(p.base(), p.len()));
    it->second = std::move(value);
    if (fresh) {
      sorted_.insert(std::lower_bound(sorted_.begin(), sorted_.end(), p), p);
      // Most lpm probes miss (every length longer than the match); at a
      // load of 1/4 or less a miss usually ends at its first slot.
      index_.reserve(3 * sorted_.size());
      const auto at = std::lower_bound(lens_.begin(), lens_.end(), p.len(),
                                       std::greater<>{});
      if (at == lens_.end() || *at != p.len()) lens_.insert(at, p.len());
    }
    return fresh;
  }

  /// Exact-match lookup.
  [[nodiscard]] const V* find(const Prefix& p) const {
    const auto it = index_.find(key_of(p.base(), p.len()));
    return it == index_.end() ? nullptr : &it->second;
  }

  /// Longest-prefix match for an address: the most specific inserted prefix
  /// containing `a`, or nullopt if none. Allocation-free.
  [[nodiscard]] std::optional<std::pair<Prefix, const V*>> lpm(const Ipv6Addr& a) const {
    for (const unsigned len : lens_) {  // longest first
      const auto it = index_.find(key_of(a, len));
      if (it != index_.end()) return std::make_pair(Prefix{a, len}, &it->second);
    }
    return std::nullopt;
  }

  /// True iff some inserted prefix contains `a`.
  [[nodiscard]] bool covers(const Ipv6Addr& a) const { return lpm(a).has_value(); }

  /// Visit every (prefix, value) pair in address order, a covering prefix
  /// before the prefixes it covers.
  template <typename F>
  void for_each(F f) const {
    for (const auto& p : sorted_) f(p, *find(p));
  }

 private:
  struct Key {
    std::uint64_t hi = 0;
    std::uint64_t lo = 0;
    std::uint64_t len = 0;
    friend bool operator==(const Key&, const Key&) = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const noexcept {
      return static_cast<std::size_t>(
          splitmix64(k.hi ^ (k.lo * 0x9e3779b97f4a7c15ULL) ^ k.len));
    }
  };

  /// `a` masked to its first `len` bits, as index key.
  static Key key_of(const Ipv6Addr& a, unsigned len) {
    // The leading `bits` bits of a half; a shift by 64 would be undefined.
    const auto keep = [](unsigned bits) {
      return bits == 0 ? std::uint64_t{0} : ~std::uint64_t{0} << (64 - bits);
    };
    return {a.hi() & keep(std::min(len, 64u)),
            a.lo() & keep(len > 64 ? len - 64 : 0), len};
  }

  std::vector<Prefix> sorted_;  // every prefix, in (base, length) order
  std::vector<unsigned> lens_;  // distinct prefix lengths, longest first
  netbase::FlatMap<Key, V, KeyHash> index_;
};

}  // namespace beholder6
