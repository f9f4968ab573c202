// Seeded fixture for tools/check_noalloc.py --unreached --self-test: the
// "library" (library.cpp), one "program" (program.cpp) and one "test"
// (test.cpp). The self-test compiles the three at -O2 -fno-inline
// -fno-pic and analyzes them like the real trees. Ground truth it asserts:
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
#pragma once

#include <memory>

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

}  // namespace unreached_fixture
