// The fixture's "library" objects (see fixture.hpp).
#include "fixture.hpp"

#include <vector>

namespace unreached_fixture {
namespace {

struct Cell {
  std::vector<int> items;  // makes the implicit constructor non-trivial
  int n = 0;
};

}  // namespace

__attribute__((noinline)) int helper(int x) { return x * 3 + 1; }

int used(int x) {
  const auto bump = [](int v) { return v + 2; };
  return bump(helper(x));
}

int test_only(int x) {
  Cell cell;
  cell.n = x;
  return cell.n ^ 0x5a;
}

int jump_table(int x, int y) {
  switch (x) {
    case 0: return y * 11;
    case 1: return y / 7;
    case 2: return y + 13;
    case 3: return y ^ 0x33;
    case 4: return y - 17;
    case 5: return y * 19 + 1;
    case 6: return y % 23;
    default: return -1;
  }
}

int allowlisted(int x) {
  Meter m;
  m.level = x;
  return m.level - 7;
}

int Square::area() const { return side * side; }

std::unique_ptr<Shape> make_square(int side) {
  return std::make_unique<Square>(side);
}

Gauge::Gauge(int x) : value(x * 5 - 3) {}

}  // namespace unreached_fixture
