// The fixture's "test" (see fixture.hpp): the only caller of test_only(),
// jump_table() and allowlisted(). Test objects are never roots of the walk.
#include "fixture.hpp"

int fixture_test(int x) {
  return unreached_fixture::test_only(x) + unreached_fixture::jump_table(x, 5) +
         unreached_fixture::allowlisted(x);
}
