// netbase/flat_map.hpp — open-addressing hash containers for hot paths.
//
// FlatMap and FlatSet replace std::unordered_map/set where lookups sit in
// the per-probe fast path (token buckets, learned interfaces, fragment-id
// counters, negative caches, route/as-path memos). Node-based containers
// pay one heap allocation per element and a pointer chase per lookup; these
// store entries contiguously in one power-of-two slot array probed
// linearly, so a warm lookup is one hash, one cache line, and usually zero
// branches mispredicted — and inserting into a pre-reserved table allocates
// nothing.
//
// Deliberate scope limits, matching how the library uses them:
//   * keys and values must be default-constructible and copy/movable;
//   * erase uses tombstones (reclaimed on rehash), so heavy churn should
//     call rehash() occasionally — our uses erase rarely or never;
//   * iteration visits slots in table order, which depends on capacity and
//     insertion history. Nothing observable may depend on it (the
//     determinism suite runs the same sequences through both container
//     families to prove reply streams never see the difference);
//   * unlike unordered_map's pair<const K, V>, iterators and find() yield
//     a mutable std::pair<K, V>& (const keys would forbid the move-based
//     rehash). Writing through ->first desyncs the entry from its hash and
//     corrupts the table — mutate values only, never keys.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "netbase/attr.hpp"
#include "netbase/huge_alloc.hpp"
#include "netbase/prefetch.hpp"
#include "netbase/rng.hpp"

namespace beholder6::netbase {

/// Default hash: finalize with splitmix64 so integral keys with low-entropy
/// bits (sequential ids, pointers) still spread across the table.
template <typename K>
struct FlatHash {
  std::size_t operator()(const K& k) const noexcept {
    return static_cast<std::size_t>(splitmix64(static_cast<std::uint64_t>(k)));
  }
};

namespace detail {

enum class SlotState : std::uint8_t { kEmpty = 0, kFull = 1, kTombstone = 2 };

/// Shared open-addressing core. Entry is the stored record; KeyOf projects
/// the key out of an entry (identity for sets, .first for maps).
template <typename Entry, typename Key, typename Hash, typename KeyOf>
class FlatTable {
 public:
  FlatTable() = default;

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }

  /// Drop every element; keeps the allocated table (pool-friendly).
  void clear() {
    if (size_ == 0 && used_ == 0) return;
    std::fill(state_.begin(), state_.end(), SlotState::kEmpty);
    size_ = 0;
    used_ = 0;
  }

  /// Grow (and purge tombstones) so `n` elements fit without rehashing.
  void reserve(std::size_t n) {
    std::size_t want = 16;
    while (want * 3 / 4 < n) want *= 2;
    if (want > slots_.size()) rehash(want);
  }

  /// Rebuild at the current size's natural capacity, purging tombstones.
  void rehash() { rehash(0); }

  /// Memory-latency hint: start pulling the head of the slot-state array,
  /// which every probe sequence reads, into cache — the whole array for a
  /// table of up to 64 slots. Read-only and result-neutral.
  void prefetch() const {
    if (!state_.empty()) prefetch_line(state_.data());
  }

  template <typename Table, typename E>
  class Iter {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = std::remove_const_t<E>;
    using reference = E&;
    using pointer = E*;
    using difference_type = std::ptrdiff_t;

    Iter() = default;
    Iter(Table* t, std::size_t i) : t_(t), i_(i) { skip(); }
    E& operator*() const { return t_->slots_[i_]; }
    E* operator->() const { return &t_->slots_[i_]; }
    Iter& operator++() {
      ++i_;
      skip();
      return *this;
    }
    friend bool operator==(const Iter& a, const Iter& b) { return a.i_ == b.i_; }

   private:
    void skip() {
      while (i_ < t_->state_.size() && t_->state_[i_] != SlotState::kFull) ++i_;
    }
    Table* t_ = nullptr;
    std::size_t i_ = 0;
    friend class FlatTable;
  };

  using iterator = Iter<FlatTable, Entry>;
  using const_iterator = Iter<const FlatTable, const Entry>;

  iterator begin() { return {this, 0}; }
  iterator end() { return {this, state_.size()}; }
  const_iterator begin() const { return {this, 0}; }
  const_iterator end() const { return {this, state_.size()}; }

  iterator find(const Key& key) {
    const auto i = find_index(key);
    return {this, i == kNpos ? state_.size() : i};
  }
  const_iterator find(const Key& key) const {
    const auto i = find_index(key);
    return {this, i == kNpos ? state_.size() : i};
  }
  [[nodiscard]] bool contains(const Key& key) const { return find_index(key) != kNpos; }

  /// Insert `entry` unless its key is present; returns (iterator, inserted).
  std::pair<iterator, bool> insert_entry(Entry&& entry) {
    maybe_grow();
    const Key& key = KeyOf{}(entry);
    std::size_t i = Hash{}(key) & mask();
    std::size_t first_tomb = kNpos;
    for (;; i = (i + 1) & mask()) {
      if (state_[i] == SlotState::kFull) {
        if (KeyOf{}(slots_[i]) == key) return {iterator{this, i}, false};
      } else if (state_[i] == SlotState::kTombstone) {
        if (first_tomb == kNpos) first_tomb = i;
      } else {  // empty: key absent
        if (first_tomb != kNpos) {
          i = first_tomb;  // reuse the tombstone
        } else {
          ++used_;
        }
        state_[i] = SlotState::kFull;
        slots_[i] = std::move(entry);
        ++size_;
        return {iterator{this, i}, true};
      }
    }
  }

  std::size_t erase(const Key& key) {
    const auto i = find_index(key);
    if (i == kNpos) return 0;
    state_[i] = SlotState::kTombstone;
    slots_[i] = Entry{};  // release any owned storage now
    --size_;
    return 1;
  }

 protected:
  static constexpr std::size_t kNpos = ~std::size_t{0};

  [[nodiscard]] std::size_t mask() const { return slots_.size() - 1; }

  [[nodiscard]] std::size_t find_index(const Key& key) const {
    if (slots_.empty()) return kNpos;
    std::size_t i = Hash{}(key) & mask();
    for (;; i = (i + 1) & mask()) {
      if (state_[i] == SlotState::kEmpty) return kNpos;
      if (state_[i] == SlotState::kFull && KeyOf{}(slots_[i]) == key) return i;
    }
  }

  void maybe_grow() {
    // Grow on load factor 3/4 counting tombstones, so probe chains stay
    // short even under erase-heavy use.
    if (slots_.empty() || (used_ + 1) * 4 > slots_.size() * 3) {
      rehash(slots_.empty() ? 16 : slots_.size() * 2);
    }
  }

  // Tables grow to megabytes on big campaigns and are probed in random
  // order; 2 MB backing pages keep lookups off the TLB-walk path (small
  // tables fall through to plain operator new inside the allocator).
  using EntryVec = std::vector<Entry, HugePageAllocator<Entry>>;
  using StateVec = std::vector<SlotState, HugePageAllocator<SlotState>>;

  // Cold gate: the only allocating branch of the insert path. B6_COLDPATH
  // keeps it outlined so tools/check_noalloc.py sees it as a named node in
  // the Release call graph (it is on that tool's allowlist); in steady
  // state a pre-reserved table never re-enters it.
  B6_COLDPATH void rehash(std::size_t want) {
    std::size_t cap = 16;
    while (cap * 3 / 4 < size_ + 1) cap *= 2;
    if (want > cap) cap = want;
    EntryVec old_slots = std::move(slots_);
    StateVec old_state = std::move(state_);
    slots_.assign(cap, Entry{});
    state_.assign(cap, SlotState::kEmpty);
    size_ = 0;
    used_ = 0;
    for (std::size_t i = 0; i < old_state.size(); ++i)
      if (old_state[i] == SlotState::kFull) insert_entry(std::move(old_slots[i]));
  }

  EntryVec slots_;
  StateVec state_;
  std::size_t size_ = 0;  // live entries
  std::size_t used_ = 0;  // live entries + tombstones (probe-chain load)
};

struct KeyIdentity {
  template <typename E>
  const E& operator()(const E& e) const {
    return e;
  }
};

struct KeyFirst {
  template <typename E>
  const auto& operator()(const E& e) const {
    return e.first;
  }
};

}  // namespace detail

/// Open-addressing hash map. Iteration yields std::pair<K, V>& in table
/// order (not insertion order).
template <typename K, typename V, typename Hash = FlatHash<K>>
class FlatMap
    : public detail::FlatTable<std::pair<K, V>, K, Hash, detail::KeyFirst> {
  using Base = detail::FlatTable<std::pair<K, V>, K, Hash, detail::KeyFirst>;

 public:
  using Base::find;

  /// Insert (key, value) unless key is present; returns (iterator, fresh).
  template <typename... Args>
  std::pair<typename Base::iterator, bool> emplace(const K& key, Args&&... args) {
    return Base::insert_entry(std::pair<K, V>{key, V{std::forward<Args>(args)...}});
  }
  std::pair<typename Base::iterator, bool> insert(std::pair<K, V> kv) {
    return Base::insert_entry(std::move(kv));
  }

  V& operator[](const K& key) { return emplace(key).first->second; }

  /// Content equality, independent of table layout (like unordered_map's).
  /// Instantiated only where used, so V need not always be comparable.
  friend bool operator==(const FlatMap& a, const FlatMap& b) {
    if (a.size() != b.size()) return false;
    for (const auto& [k, v] : a) {
      const auto it = b.find(k);
      if (it == b.end() || !(it->second == v)) return false;
    }
    return true;
  }

  [[nodiscard]] const V& at(const K& key) const {
    const auto i = Base::find_index(key);
    if (i == Base::kNpos) throw std::out_of_range("FlatMap::at");
    return Base::slots_[i].second;
  }
  [[nodiscard]] V& at(const K& key) {
    const auto i = Base::find_index(key);
    if (i == Base::kNpos) throw std::out_of_range("FlatMap::at");
    return Base::slots_[i].second;
  }
};

/// Open-addressing hash set.
template <typename K, typename Hash = FlatHash<K>>
class FlatSet : public detail::FlatTable<K, K, Hash, detail::KeyIdentity> {
  using Base = detail::FlatTable<K, K, Hash, detail::KeyIdentity>;

 public:
  std::pair<typename Base::iterator, bool> insert(K key) {
    return Base::insert_entry(std::move(key));
  }

  /// Content equality, independent of table layout (like unordered_set's).
  friend bool operator==(const FlatSet& a, const FlatSet& b) {
    if (a.size() != b.size()) return false;
    for (const auto& k : a)
      if (!b.contains(k)) return false;
    return true;
  }
};

}  // namespace beholder6::netbase
