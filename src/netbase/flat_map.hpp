// netbase/flat_map.hpp — open-addressing hash containers for hot paths.
//
// FlatMap and FlatSet replace std::unordered_map/set where lookups sit in
// the per-probe fast path (token buckets, learned interfaces, fragment-id
// counters, negative caches, route/as-path memos). Node-based containers
// pay one heap allocation per element and a pointer chase per lookup; these
// store entries contiguously in one power-of-two slot array probed
// linearly, so a warm lookup is one hash, one control byte, one entry, and
// usually zero branches mispredicted — and inserting into a pre-reserved
// table allocates nothing.
//
// Layout. A table is one block: the entries, then one control byte per
// slot. A slot's entry is raw storage until the slot fills (no slot is
// value-initialised; the entry is constructed on insert and destroyed on
// erase, clear and rehash, a no-op for trivially destructible entries). A
// full slot's control byte is 0x80 | the hash's top 7 bits, its tag; empty
// (0x00) and tombstone (0x01) leave the high bit clear. A probe compares a
// key only where the tag matches, so a miss in a long run of collisions
// reads control bytes, not entries. The table grows at a load of 7/8,
// tombstones included, so up to 14 entries fit in 16 slots and 28 in 32.
//
// Deliberate scope limits, matching how the library uses them:
//   * keys and values must be copy/movable, and operator[]/emplace need a
//     default-constructible value;
//   * erase uses tombstones, reclaimed when the table next grows — our
//     uses erase rarely or never;
//   * iteration visits slots in table order, which depends on capacity and
//     insertion history. Nothing observable may depend on it (the
//     determinism suite runs the same sequences through both container
//     families to prove reply streams never see the difference);
//   * unlike unordered_map's pair<const K, V>, iterators and find() yield
//     a mutable std::pair<K, V>& (const keys would forbid the move-based
//     rehash). Writing through ->first desyncs the entry from its hash and
//     tag and corrupts the table — mutate values only, never keys.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <memory>
#include <new>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "netbase/attr.hpp"
#include "netbase/dcheck.hpp"
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

/// Shared open-addressing core. Entry is the stored record; KeyOf projects
/// the key out of an entry (identity for sets, .first for maps).
template <typename Entry, typename Key, typename Hash, typename KeyOf>
class FlatTable {
 public:
  FlatTable() = default;
  FlatTable(const FlatTable& other) : size_(other.size_), used_(other.used_) {
    if (other.cap_ == 0) return;
    slots_ = allocate(other.cap_);
    cap_ = other.cap_;
    std::memcpy(ctrl(), other.ctrl(), cap_);
    for (std::size_t i = 0; i < cap_; ++i)
      if (is_full(ctrl()[i])) ::new (static_cast<void*>(slots_ + i)) Entry(other.slots_[i]);
  }
  FlatTable(FlatTable&& other) noexcept
      : slots_(std::exchange(other.slots_, nullptr)),
        cap_(std::exchange(other.cap_, 0)),
        size_(std::exchange(other.size_, 0)),
        used_(std::exchange(other.used_, 0)) {}
  FlatTable& operator=(const FlatTable& other) {
    if (this != &other) *this = FlatTable{other};
    return *this;
  }
  FlatTable& operator=(FlatTable&& other) noexcept {
    if (this != &other) {
      FlatTable old{std::move(*this)};  // frees this table's block on return
      slots_ = std::exchange(other.slots_, nullptr);
      cap_ = std::exchange(other.cap_, 0);
      size_ = std::exchange(other.size_, 0);
      used_ = std::exchange(other.used_, 0);
    }
    return *this;
  }
  ~FlatTable() {
    if (slots_ == nullptr) return;
    clear();
    deallocate(slots_, cap_);
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t capacity() const { return cap_; }

  /// Drop every element; keeps the allocated table (pool-friendly).
  void clear() {
    if (size_ == 0 && used_ == 0) return;
    if constexpr (!std::is_trivially_destructible_v<Entry>) {
      for (std::size_t i = 0; i < cap_; ++i)
        if (is_full(ctrl()[i])) std::destroy_at(slots_ + i);
    }
    std::memset(ctrl(), kEmpty, cap_);
    size_ = 0;
    used_ = 0;
  }

  /// Grow (and purge tombstones) so `n` elements fit without rehashing.
  void reserve(std::size_t n) {
    std::size_t want = kMinCapacity;
    while (want * 7 / 8 < n) want *= 2;
    if (want > cap_) rehash(want);
  }

  /// Memory-latency hint: start pulling the head of the control bytes,
  /// which every probe sequence reads, into cache — all of them for a
  /// table of up to 64 slots. Read-only and result-neutral.
  void prefetch() const {
    if (cap_ != 0) prefetch_line(ctrl());
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
      while (i_ < t_->cap_ && !is_full(t_->ctrl()[i_])) ++i_;
    }
    Table* t_ = nullptr;
    std::size_t i_ = 0;
    friend class FlatTable;
  };

  using iterator = Iter<FlatTable, Entry>;
  using const_iterator = Iter<const FlatTable, const Entry>;

  iterator begin() { return {this, 0}; }
  iterator end() { return {this, cap_}; }
  const_iterator begin() const { return {this, 0}; }
  const_iterator end() const { return {this, cap_}; }

  iterator find(const Key& key) {
    const auto i = find_index(key);
    return {this, i == kNpos ? cap_ : i};
  }
  const_iterator find(const Key& key) const {
    const auto i = find_index(key);
    return {this, i == kNpos ? cap_ : i};
  }
  [[nodiscard]] bool contains(const Key& key) const { return find_index(key) != kNpos; }

  /// Insert `entry` unless its key is present; returns (iterator, inserted).
  std::pair<iterator, bool> insert_entry(Entry&& entry) {
    maybe_grow();
    const Key& key = KeyOf{}(entry);
    const std::size_t h = Hash{}(key);
    const std::uint8_t tag = tag_of(h);
    std::uint8_t* const c = ctrl();
    std::size_t first_tomb = kNpos;
    for (std::size_t i = h & mask();; i = (i + 1) & mask()) {
      if (c[i] == tag) {
        if (KeyOf{}(slots_[i]) == key) return {iterator{this, i}, false};
      } else if (c[i] == kTombstone) {
        if (first_tomb == kNpos) first_tomb = i;
      } else if (c[i] == kEmpty) {  // key absent
        const bool fresh = first_tomb == kNpos;
        if (!fresh) i = first_tomb;  // reuse the tombstone
        ::new (static_cast<void*>(slots_ + i)) Entry(std::move(entry));
        c[i] = tag;
        used_ += fresh;
        ++size_;
        return {iterator{this, i}, true};
      }
    }
  }

  std::size_t erase(const Key& key) {
    const auto i = find_index(key);
    if (i == kNpos) return 0;
    std::destroy_at(slots_ + i);  // release any owned storage now
    ctrl()[i] = kTombstone;
    --size_;
    B6_DCHECK2(cap_ > kSweptEraseSlots || invariants_hold(),
               "FlatTable: a control byte or count disagrees after erase");
    return 1;
  }

 protected:
  static constexpr std::size_t kNpos = ~std::size_t{0};

  [[nodiscard]] std::size_t mask() const { return cap_ - 1; }

  [[nodiscard]] std::size_t find_index(const Key& key) const {
    if (cap_ == 0) return kNpos;
    const std::size_t h = Hash{}(key);
    const std::uint8_t tag = tag_of(h);
    const std::uint8_t* const c = ctrl();
    for (std::size_t i = h & mask();; i = (i + 1) & mask()) {
      if (c[i] == tag && KeyOf{}(slots_[i]) == key) return i;
      if (c[i] == kEmpty) return kNpos;
    }
  }

  void maybe_grow() {
    // Grow on load factor 7/8 counting tombstones, so probe chains stay
    // bounded even under erase-heavy use.
    if (cap_ == 0 || (used_ + 1) * 8 > cap_ * 7) rehash(cap_ == 0 ? kMinCapacity : cap_ * 2);
  }

  // Cold gate: the only allocating branch of the insert path. B6_COLDPATH
  // keeps it outlined so tools/check_noalloc.py sees it as a named node in
  // the Release call graph (it is on that tool's allowlist); in steady
  // state a pre-reserved table never re-enters it.
  B6_COLDPATH void rehash(std::size_t want) {
    std::size_t cap = kMinCapacity;
    while (cap * 7 / 8 < size_ + 1) cap *= 2;
    if (want > cap) cap = want;
    Entry* const old = slots_;
    const std::size_t old_cap = cap_;
    const std::uint8_t* const old_ctrl = ctrl();
    slots_ = allocate(cap);
    cap_ = cap;
    used_ = size_;
    std::uint8_t* const c = ctrl();
    std::memset(c, kEmpty, cap);
    for (std::size_t i = 0; i < old_cap; ++i) {
      if (!is_full(old_ctrl[i])) continue;
      std::size_t j = Hash{}(KeyOf{}(old[i])) & mask();
      while (c[j] != kEmpty) j = (j + 1) & mask();
      ::new (static_cast<void*>(slots_ + j)) Entry(std::move(old[i]));
      std::destroy_at(old + i);
      c[j] = old_ctrl[i];  // keys are unique: no compare, same tag
    }
    if (old != nullptr) deallocate(old, old_cap);
    B6_DCHECK2(invariants_hold(), "FlatTable: a control byte or count disagrees after rehash");
  }

  Entry* slots_ = nullptr;  // cap_ entries, then cap_ control bytes
  std::size_t cap_ = 0;
  std::size_t size_ = 0;  // live entries
  std::size_t used_ = 0;  // live entries + tombstones (probe-chain load)

 private:
  static constexpr std::size_t kMinCapacity = 16;
  // A full slot's control byte is kFull | the hash's top 7 bits (its tag);
  // the two free states leave the high bit clear.
  static constexpr std::uint8_t kEmpty = 0x00;
  static constexpr std::uint8_t kTombstone = 0x01;
  static constexpr std::uint8_t kFull = 0x80;
  // An erase from a table of up to this many slots re-runs the level-2
  // sweep; larger tables are swept at their next rehash, so erase-heavy
  // tests on big tables stay fast in a level-2 build.
  static constexpr std::size_t kSweptEraseSlots = 1024;

  static bool is_full(std::uint8_t c) { return (c & kFull) != 0; }
  static std::uint8_t tag_of(std::size_t h) {
    return static_cast<std::uint8_t>(kFull | (h >> (std::numeric_limits<std::size_t>::digits - 7)));
  }

  [[nodiscard]] std::uint8_t* ctrl() const {
    return reinterpret_cast<std::uint8_t*>(slots_ + cap_);
  }

  // One block per table: the entries (raw storage; an entry is constructed
  // when its slot fills and destroyed when it empties), then one control
  // byte per slot. Tables grow to megabytes on big campaigns and are probed
  // in random order; 2 MB backing pages keep lookups off the TLB-walk path
  // (small tables fall through to plain operator new inside the allocator).
  struct alignas(Entry) Unit {
    unsigned char bytes[alignof(Entry)];
  };
  using UnitAllocator = HugePageAllocator<Unit>;
  static std::size_t units(std::size_t cap) {
    return (cap * (sizeof(Entry) + 1) + sizeof(Unit) - 1) / sizeof(Unit);
  }
  static Entry* allocate(std::size_t cap) {
    return reinterpret_cast<Entry*>(UnitAllocator{}.allocate(units(cap)));
  }
  static void deallocate(Entry* block, std::size_t cap) {
    UnitAllocator{}.deallocate(reinterpret_cast<Unit*>(block), units(cap));
  }

  // Level-2 sweep: every full slot carries its key's tag, and the full
  // and tombstone counts match size_ and used_.
  [[nodiscard]] bool invariants_hold() const {
    std::size_t full = 0;
    std::size_t tombs = 0;
    for (std::size_t i = 0; i < cap_; ++i) {
      const std::uint8_t c = ctrl()[i];
      if (is_full(c)) {
        if (c != tag_of(Hash{}(KeyOf{}(slots_[i])))) return false;
        ++full;
      } else if (c == kTombstone) {
        ++tombs;
      } else if (c != kEmpty) {
        return false;
      }
    }
    return full == size_ && full + tombs == used_;
  }
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
