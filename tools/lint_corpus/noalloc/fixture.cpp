// Seeded fixture for tools/check_noalloc.py --self-test.
//
// Compiled at -O2 by the self-test, then analyzed like the real library
// objects. Ground truth the self-test asserts:
//
//   hot_entry_dirty  -> helper_one -> helper_two -> operator new
//       MUST be flagged, with both helper frames present in the chain.
//   hot_entry_gated  -> cold_gate_refill -> operator new
//       MUST pass: the walk stops at the gate (matched by the fixture
//       gate pattern `noalloc_fixture::cold_gate_`).
//   hot_entry_clean  -> arithmetic only
//       MUST pass.
//   hot_entry_map    -> mmap
//       MUST be flagged: a page mapping is an allocation too.
//   hot_entry_map_gated -> cold_gate_map -> mmap
//       MUST pass: the same mapping behind a gate.
//   hot_entry_ctor   -> Buf::Buf (out-of-line ctor) -> operator new
//       MUST be flagged. This covers the constructor-alias trap: GCC
//       emits Buf::Buf as a C1/C2 symbol *pair* at one address; the
//       disassembly header names one, the call site references the
//       other, and without objdump -t alias resolution the edge dangles
//       and the allocation silently escapes the walk.
//   hot_entry_reloc  -> cold_gate_far -> operator new
//       MUST pass, with cold_gate_far reached. Its last instruction is a
//       relocated jump into another section; objdump labels the unpatched
//       displacement with the function laid out next, alloc_neighbour,
//       which allocates. Following that label would be a phantom edge and
//       a false finding; the relocation names the real callee.
//   hot_entry_resume -> a jump into the body of cold_gate_far, the way a
//       `.cold` fragment resumes its parent
//       MUST resolve to cold_gate_far, not be reported as unresolved.
//   hot_entry_unresolved -> a jump into another section at an offset
//       no function covers
//       MUST be reported as unresolved: the walk cannot follow it.
//
// The noinline attributes play the role B6_COLDPATH plays in the library:
// they keep each frame outlined so it exists as a call-graph node at -O2.
// The volatile sink keeps the optimizer from deleting the allocations.
// The two relocation cases are x86-64 assembly, since they depend on exact
// instruction and section layout that no compiler flag pins down.

#include <sys/mman.h>

#include <cstddef>

namespace noalloc_fixture {

volatile void* sink = nullptr;

__attribute__((noinline)) void helper_two(std::size_t n) {
  sink = ::operator new(n);  // the seeded hot-path allocation
}

__attribute__((noinline)) void helper_one(std::size_t n) {
  helper_two(n + 1);
}

__attribute__((noinline)) void cold_gate_refill(std::size_t n) {
  sink = ::operator new(n);  // allowed: behind a declared cold gate
}

__attribute__((noinline)) int hot_entry_dirty(int x) {
  if (x > 1000) helper_one(static_cast<std::size_t>(x));
  return x * 3;
}

__attribute__((noinline)) int hot_entry_gated(int x) {
  if (x > 1000) cold_gate_refill(static_cast<std::size_t>(x));
  return x * 5;
}

struct Buf {
  __attribute__((noinline)) explicit Buf(std::size_t n);
  void* p_;
};

Buf::Buf(std::size_t n) : p_(::operator new(n)) {}

__attribute__((noinline)) int hot_entry_ctor(int x) {
  if (x > 1000) {
    Buf b(static_cast<std::size_t>(x));
    sink = b.p_;
  }
  return x * 7;
}

__attribute__((noinline)) int hot_entry_map(int x) {
  if (x > 1000)
    sink = ::mmap(nullptr, static_cast<std::size_t>(x), PROT_READ,
                  MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);  // seeded mapping
  return x * 11;
}

__attribute__((noinline)) void cold_gate_map(std::size_t n) {
  sink = ::mmap(nullptr, n, PROT_READ, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
}

__attribute__((noinline)) int hot_entry_map_gated(int x) {
  if (x > 1000) cold_gate_map(static_cast<std::size_t>(x));
  return x * 13;
}

__attribute__((noinline)) int hot_entry_clean(int x) {
  int acc = 1;
  for (int i = 0; i < x; ++i) acc = acc * 33 + i;
  return acc;
}

}  // namespace noalloc_fixture

#if defined(__x86_64__) && defined(__ELF__)
// Mangled names: noalloc_fixture::cold_gate_far(), ::hot_entry_reloc(),
// ::alloc_neighbour(), ::hot_entry_unresolved(), ::hot_entry_resume().
asm(R"(
  .section .text.noalloc_fixture_far,"ax",@progbits
  .type _ZN15noalloc_fixture13cold_gate_farEv, @function
_ZN15noalloc_fixture13cold_gate_farEv:
  nop
.Lnoalloc_fixture_far_body:
  jmp _Znwm
  .size _ZN15noalloc_fixture13cold_gate_farEv, .-_ZN15noalloc_fixture13cold_gate_farEv
.Lnoalloc_fixture_no_function:
  ret

  .section .text.noalloc_fixture_near,"ax",@progbits
  .globl _ZN15noalloc_fixture15hot_entry_relocEv
  .type _ZN15noalloc_fixture15hot_entry_relocEv, @function
_ZN15noalloc_fixture15hot_entry_relocEv:
  jmp _ZN15noalloc_fixture13cold_gate_farEv
  .size _ZN15noalloc_fixture15hot_entry_relocEv, .-_ZN15noalloc_fixture15hot_entry_relocEv
  .type _ZN15noalloc_fixture15alloc_neighbourEv, @function
_ZN15noalloc_fixture15alloc_neighbourEv:
  jmp _Znwm
  .size _ZN15noalloc_fixture15alloc_neighbourEv, .-_ZN15noalloc_fixture15alloc_neighbourEv

  .globl _ZN15noalloc_fixture20hot_entry_unresolvedEv
  .type _ZN15noalloc_fixture20hot_entry_unresolvedEv, @function
_ZN15noalloc_fixture20hot_entry_unresolvedEv:
  jmp .Lnoalloc_fixture_no_function
  .size _ZN15noalloc_fixture20hot_entry_unresolvedEv, .-_ZN15noalloc_fixture20hot_entry_unresolvedEv

  .globl _ZN15noalloc_fixture16hot_entry_resumeEv
  .type _ZN15noalloc_fixture16hot_entry_resumeEv, @function
_ZN15noalloc_fixture16hot_entry_resumeEv:
  jmp .Lnoalloc_fixture_far_body
  .size _ZN15noalloc_fixture16hot_entry_resumeEv, .-_ZN15noalloc_fixture16hot_entry_resumeEv
  .text
)");
#endif

int fixture_main(int x) {
  using namespace noalloc_fixture;
  return hot_entry_dirty(x) + hot_entry_gated(x) + hot_entry_clean(x) +
         hot_entry_ctor(x) + hot_entry_map(x) + hot_entry_map_gated(x);
}
