// tests/support/flat_rebuild.hpp — rebuild a FlatMap or FlatSet at its
// size's natural capacity, dropping its tombstones. The library's tables
// reclaim tombstones only when they grow; tests that want a purge at a
// chosen point build it from the public API.
#pragma once

#include <utility>

namespace beholder6::test_support {

/// Move every entry of `table` into a fresh table reserved for its size,
/// then move that table back in.
template <typename Table>
void rebuild(Table& table) {
  Table fresh;
  fresh.reserve(table.size());
  for (auto& entry : table) {
    if constexpr (requires { entry.second; })
      fresh.emplace(entry.first, std::move(entry.second));
    else
      fresh.insert(std::move(entry));
  }
  table = std::move(fresh);
}

}  // namespace beholder6::test_support
