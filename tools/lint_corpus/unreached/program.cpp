// The fixture's one "program" (see fixture.hpp): it reaches used() and
// Meter::reading() and Tally<int>::half() directly and Square::area() only
// through Shape's vtable.
#include "fixture.hpp"

int main(int argc, char**) {
  const auto shape = unreached_fixture::make_square(argc);
  unreached_fixture::Meter meter;
  meter.level = argc;
  const unreached_fixture::Tally<int> tally{argc};
  return unreached_fixture::used(argc) + shape->area() + meter.reading() +
         tally.half() + unreached_fixture::scaled(argc);
}
