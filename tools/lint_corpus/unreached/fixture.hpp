// Seeded fixture for tools/check_noalloc.py --unreached --self-test: the
// "library" (library.cpp), one "program" (program.cpp) and one "test"
// (test.cpp). The self-test compiles the three at -O2 -fno-inline
// -fno-pic, the library with -fkeep-inline-functions added, and analyzes
// them like the real trees. Ground truth it asserts:
//
//   used()          called from the program          MUST pass.
//   helper()        called from used() only          MUST pass (transitive).
//   test_only()     called from the test object only MUST be reported.
//   jump_table()    called from the test object only, and its switch
//                   compiles to a table of absolute addresses inside its
//                   own body (non-PIC) MUST be reported: an address into
//                   a function's body is not a reference to it.
//   allowlisted()   called from the test object only MUST pass, with the
//                   fixture allowlist's reason printed.
//   Square::area()  a virtual override that no code calls directly; the
//                   program dispatches to it through Shape's vtable
//                   MUST pass: the vtable holds its address.
//   Gauge::Gauge()  an out-of-line constructor (written in library.cpp,
//                   so not of vague linkage) called from the test object
//                   only MUST be reported.
//
// Header-inline code: the library object is compiled with
// -fkeep-inline-functions, so it holds a copy of every inline function
// below whether or not it calls it.
//   Meter::peak()    called from the test object only MUST be reported.
//   Meter::reading() called from the program, whose object holds only a
//                    local `[clone .isra.0]` copy of it, MUST pass.
//   Meter::Meter()   implicitly defined, called from allowlisted() only,
//                    MUST NOT be reported: a constructor is never judged.
//   Cell::Cell()     the implicit constructor of a class in library.cpp's
//                    anonymous namespace (a local `.text` symbol, not
//                    COMDAT), called from test_only() only, MUST NOT be
//                    reported.
//   used()'s lambda  its static invoker (_FUN) and its conversion to a
//                    function pointer, which nothing calls, MUST NOT be
//                    reported.
//
// Templates: a member of a class template exists only where something
// instantiates it, so the test object's instantiations are judged too, by
// their source function (the name without template arguments).
//   Tally<T>::half()  the program calls Tally<int>::half(), the test
//                     Tally<long>::half() MUST pass: any instantiation
//                     reached reaches it.
//   Tally<T>::twice() only the test calls, in Tally<long>, MUST be
//                     reported.
//   scaled<T>()       a function template, whose name demangles after its
//                     return type: the program calls scaled<int>(), the
//                     test scaled<long>() MUST pass.
#pragma once

#include <memory>
#include <vector>

namespace unreached_fixture {

int used(int x);
int test_only(int x);
int jump_table(int x, int y);
int allowlisted(int x);

struct Shape {
  virtual ~Shape() = default;
  virtual int area() const = 0;
};

struct Square final : Shape {
  explicit Square(int s) : side(s) {}
  int area() const override;
  int side;
};

std::unique_ptr<Shape> make_square(int side);

struct Gauge {
  explicit Gauge(int x);
  int value;
};

struct Meter {
  int reading() const { return level * 2 + 1; }
  int peak() const { return level + 9; }
  std::vector<int> samples;  // makes the implicit constructor non-trivial
  int level = 0;
};

template <typename T>
struct Tally {
  T half() const { return total / 2; }
  T twice() const { return total * 2; }
  T total{};
};

template <typename T>
T scaled(T v) {
  return v * 3 + 1;
}

}  // namespace unreached_fixture
