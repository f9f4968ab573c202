// Randomized differential test: FlatMap/FlatSet vs the std::map/std::set
// oracle, driven by the library's own deterministic Rng (fixed seeds, so a
// failure reproduces exactly). The ASan/UBSan CI legs run this to flush
// open-addressing edge cases the unit tests cannot enumerate: tombstone
// reuse and re-probing, rehash at the exact load-factor boundary, erase of
// a just-tombstoned key, clear() under retained capacity, and value
// overwrite through operator[].
#include "netbase/flat_map.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "netbase/rng.hpp"
#include "support/flat_rebuild.hpp"

namespace beholder6::netbase {
namespace {

// Keys drawn from a small universe so insert/erase collide with live slots
// and tombstones constantly; a wide universe would fuzz the happy path.
constexpr std::uint64_t kKeyUniverse = 512;
constexpr int kOpsPerRound = 4000;

void check_map_equal(const FlatMap<std::uint64_t, std::uint64_t>& flat,
                     const std::map<std::uint64_t, std::uint64_t>& oracle) {
  ASSERT_EQ(flat.size(), oracle.size());
  for (const auto& [k, v] : oracle) {
    const auto it = flat.find(k);
    ASSERT_NE(it, flat.end()) << "oracle key " << k << " missing from FlatMap";
    ASSERT_EQ(it->second, v) << "value mismatch at key " << k;
  }
  // And the reverse direction: FlatMap holds nothing the oracle lacks.
  std::size_t seen = 0;
  for (const auto& kv : flat) {
    const auto it = oracle.find(kv.first);
    ASSERT_NE(it, oracle.end()) << "FlatMap key " << kv.first << " not in oracle";
    ASSERT_EQ(it->second, kv.second);
    ++seen;
  }
  ASSERT_EQ(seen, oracle.size());
}

TEST(FlatMapFuzz, RandomOpsMatchMapOracle) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng{splitmix64(seed)};
    FlatMap<std::uint64_t, std::uint64_t> flat;
    std::map<std::uint64_t, std::uint64_t> oracle;
    for (int op = 0; op < kOpsPerRound; ++op) {
      const auto key = rng.below(kKeyUniverse);
      switch (rng.below(100)) {
        case 0:  // rare: drop everything, capacity retained
          flat.clear();
          oracle.clear();
          break;
        case 1:  // rare: tombstone purge by rebuilding
          test_support::rebuild(flat);
          break;
        case 2:  // rare: jump capacity ahead of size
          flat.reserve(static_cast<std::size_t>(rng.below(kKeyUniverse)));
          break;
        default:
          if (rng.chance(0.38)) {
            ASSERT_EQ(flat.erase(key), oracle.erase(key));
          } else if (rng.chance(0.25)) {
            // Overwrite through operator[] (insert-or-assign shape).
            const auto val = rng();
            flat[key] = val;
            oracle[key] = val;
          } else {
            const auto val = rng();
            const bool fresh_flat = flat.emplace(key, val).second;
            const bool fresh_oracle = oracle.emplace(key, val).second;
            ASSERT_EQ(fresh_flat, fresh_oracle);
          }
          break;
      }
      ASSERT_EQ(flat.size(), oracle.size());
      ASSERT_EQ(flat.contains(key), oracle.count(key) == 1);
    }
    check_map_equal(flat, oracle);
  }
}

TEST(FlatMapFuzz, EraseReinsertChurnsTombstones) {
  // Heavy erase/reinsert of the *same* key set never rehashes away the
  // tombstones unless asked: probes must step over them correctly, and a
  // reinsert must reuse the first tombstone on its chain.
  Rng rng{splitmix64(0xdead)};
  FlatMap<std::uint64_t, std::uint64_t> flat;
  std::map<std::uint64_t, std::uint64_t> oracle;
  constexpr std::uint64_t kHot = 24;  // smaller than one table
  for (int round = 0; round < 600; ++round) {
    const auto key = rng.below(kHot);
    if (rng.chance(0.5)) {
      ASSERT_EQ(flat.erase(key), oracle.erase(key));
    } else {
      const auto val = rng();
      ASSERT_EQ(flat.emplace(key, val).second, oracle.emplace(key, val).second);
    }
    for (std::uint64_t k = 0; k < kHot; ++k)
      ASSERT_EQ(flat.contains(k), oracle.count(k) == 1) << "key " << k;
  }
  check_map_equal(flat, oracle);
}

TEST(FlatMapFuzz, RehashAtCapacityBoundary) {
  // Fill to the exact 7/8 load-factor trip point repeatedly: every element
  // must survive each doubling, including entries displaced far from their
  // home slot by collision chains.
  FlatMap<std::uint64_t, std::uint64_t> flat;
  std::map<std::uint64_t, std::uint64_t> oracle;
  for (std::uint64_t k = 0; k < 3000; ++k) {
    flat.emplace(k, k * k);
    oracle.emplace(k, k * k);
    if ((k & (k - 1)) == 0)  // verify around the power-of-two growth points
      check_map_equal(flat, oracle);
  }
  check_map_equal(flat, oracle);
}

TEST(FlatSetFuzz, RandomOpsMatchSetOracle) {
  for (std::uint64_t seed = 11; seed <= 14; ++seed) {
    Rng rng{splitmix64(seed * 977)};
    FlatSet<std::uint64_t> flat;
    std::set<std::uint64_t> oracle;
    for (int op = 0; op < kOpsPerRound; ++op) {
      const auto key = rng.below(kKeyUniverse);
      if (rng.chance(0.4)) {
        ASSERT_EQ(flat.erase(key), oracle.erase(key));
      } else {
        ASSERT_EQ(flat.insert(key).second, oracle.insert(key).second);
      }
      if (op % 97 == 0) test_support::rebuild(flat);
      ASSERT_EQ(flat.size(), oracle.size());
    }
    for (const auto& k : oracle) ASSERT_TRUE(flat.contains(k));
    std::size_t seen = 0;
    for (const auto& k : flat) {
      ASSERT_EQ(oracle.count(k), 1u);
      ++seen;
    }
    ASSERT_EQ(seen, oracle.size());
  }
}

TEST(FlatSetFuzz, ClearRetainsCapacityAndStaysCorrect) {
  FlatSet<std::uint64_t> flat;
  std::set<std::uint64_t> oracle;
  Rng rng{splitmix64(0xc1ea7)};
  for (int cycle = 0; cycle < 5; ++cycle) {
    const auto cap_before = flat.capacity();
    for (int i = 0; i < 500; ++i) {
      const auto k = rng.below(kKeyUniverse);
      ASSERT_EQ(flat.insert(k).second, oracle.insert(k).second);
    }
    for (const auto& k : oracle) ASSERT_TRUE(flat.contains(k));
    if (cycle > 0) {
      ASSERT_GE(flat.capacity(), cap_before);
    }
    flat.clear();
    oracle.clear();
    ASSERT_TRUE(flat.empty());
  }
}

}  // namespace
}  // namespace beholder6::netbase
