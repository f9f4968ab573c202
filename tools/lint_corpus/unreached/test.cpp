// The fixture's "test" (see fixture.hpp): the only caller of test_only(),
// jump_table(), allowlisted(), Meter::peak() and Gauge::Gauge(). Test
// objects are never roots of the walk.
#include "fixture.hpp"

int fixture_test(int x) {
  unreached_fixture::Meter meter;
  meter.level = x;
  return unreached_fixture::test_only(x) + unreached_fixture::jump_table(x, 5) +
         unreached_fixture::allowlisted(x) + meter.peak() +
         unreached_fixture::Gauge{x}.value;
}
