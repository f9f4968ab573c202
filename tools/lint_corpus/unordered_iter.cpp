// Seeded violations for the unordered-iter rule. Never compiled — this is
// the linter's regression corpus (see lint_determinism.py --self-test).
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "netbase/flat_map.hpp"

namespace corpus {

using StopSet = std::unordered_set<int>;  // alias must taint declarations
using FlatStopSet = beholder6::netbase::FlatSet<int>;  // qualified FlatSet

int feeds_output(const std::unordered_map<int, std::string>& m) {
  std::unordered_map<int, std::string> local = m;
  int acc = 0;
  for (const auto& [k, v] : local) acc += k;  // lint-expect(unordered-iter)
  return acc;
}

int flat_variants() {
  beholder6::netbase::FlatMap<int, int> fm;
  beholder6::netbase::FlatSet<int> fs;
  int acc = 0;
  for (const auto& kv : fm) acc += kv.second;  // lint-expect(unordered-iter)
  for (const auto& k : fs) acc += k;           // lint-expect(unordered-iter)
  return acc;
}

int through_alias() {
  StopSet stops;
  int acc = 0;
  for (const auto& s : stops) acc += s;  // lint-expect(unordered-iter)
  return acc;
}

int through_flat_alias() {
  FlatStopSet known;  // a name no other declaration taints
  int acc = 0;
  for (const auto& k : known) acc += k;  // lint-expect(unordered-iter)
  return acc;
}

int iterator_walk() {
  std::unordered_set<int> seen;
  int acc = 0;
  for (auto it = seen.begin(); it != seen.end(); ++it)  // lint-expect(unordered-iter)
    acc += *it;
  return acc;
}

int allowed_order_independent_fold() {
  std::unordered_set<int> seen;
  int acc = 0;
  // beholder6: lint-allow(unordered-iter): order-independent integer sum
  for (const auto& s : seen) acc += s;
  return acc;
}

int ordered_map_is_fine(const std::vector<int>& v) {
  int acc = 0;
  for (const auto& x : v) acc += x;  // vectors iterate in index order
  return acc;
}

}  // namespace corpus
