#!/usr/bin/env python3
"""Static no-alloc checker for the beholder6 hot path, and (--unreached)
a gate on library functions that no non-test program reaches.

tests/simnet/steady_state_alloc_test.cpp proves at *runtime* — via a
counting `operator new` hook — that the steady-state inject→resolve→reply
path allocates exactly zero bytes. That proof only covers the paths the
test's probe set happens to exercise. This tool promotes the contract to a *build-time* guarantee: it
walks the static call graph of the optimized build's object files from the
designated hot-path entry points and fails if any path reaches an
allocator, except through a short allowlist of named cold gates.

How it works
------------
1. Collect the library's object files from a CMake build tree
   (CMakeFiles/beholder6.dir/**/*.o). The canonical analysis build is
   Release **plus `-fno-inline`**:

       cmake -B build-noalloc -DCMAKE_BUILD_TYPE=Release \
             -DBEHOLDER6_BUILD_TESTS=OFF -DBEHOLDER6_BUILD_BENCH=OFF \
             -DCMAKE_CXX_FLAGS=-fno-inline
       cmake --build build-noalloc --target beholder6 -j

   -fno-inline keeps every call edge symbolic — in particular the
   libstdc++ growth helpers (`_M_realloc_insert` & friends), which at
   plain -O2 get inlined into their callers and then read as direct
   `operator new` calls inside hot functions, indistinguishable from real
   per-call allocations. Disabling inlining is the *sound* direction for
   this analysis: inlining only ever removes or merges edges, so a clean
   -fno-inline graph over-approximates the optimized binary's reachable
   allocations. Running against a plain optimized tree still works but
   reports the inlined growth branches as findings (the tool warns when
   the tree's flags lack -fno-inline).
2. `objdump -dr` each object; record every defined function and its
   direct call/tail-call targets (both resolver-annotated `call <sym>`
   text and `R_X86_64_PLT32/PC32` relocations, so intra- and inter-object
   edges are seen), plus the functions whose address it takes (a
   rip-relative `lea`, a GOTPCREL load). `objdump -tr` gives the symbol
   table and the relocations that store a function's address in data.
3. Demangle everything through `c++filt`, pick the entry points by
   demangled-name pattern, and BFS outward.
4. A walk that reaches `operator new` / `malloc` & friends, or a page
   mapping (`mmap`, `mremap`: netbase::HugePageAllocator maps every
   block of 1 MB or more itself), is a finding,
   reported with the full call chain. A walk that reaches a **cold gate**
   stops there: gates are the functions allowed to allocate because they
   are off the steady-state path *by construction* — amortized growth
   (`FlatTable::rehash`, libstdc++ `_M_realloc_insert` and friends, pool
   warm-up), the route-cache **miss** path's `RouteCache::insert` (the
   path oracle before it, `Topology::path_into`, is itself checked), and
   abort/throw error paths. Source-side, the
   in-repo gates wear `B6_COLDPATH` (src/netbase/attr.hpp), which keeps
   them outlined even in fully-inlining optimized builds.
5. `--report FILE` writes a JSON call-graph report (entries, every gate
   hit with a witness chain, findings with chains) — the CI artifact.

What it cannot see (by design, stated rather than hidden): calls through
function pointers and std::function (`ResponseSink`, the probe observer) —
sink bodies are campaign code, not the library hot path; and allocations
the compiler fully inlined *without* a symbolic call — the B6_COLDPATH
discipline exists precisely to prevent that for the known gates, and any
new direct `operator new` call inside a hot function is still visible
because the allocator itself is always an external symbol.

Entry points (demangled-name regex, `--entry` to extend):
    Network::inject_view, Network::inject_impl, RouteCache::find,
    Network::resolve_path, wire::encode_probe_into, wire::decode_reply,
    Topology::host_at, Topology::path_into, Topology::origin (the BGP
    longest-prefix match), and the prefetch hints —
    CampaignReactor::warm_lookahead, Network::prefetch_state,
    PacketPool::prefetch, FlatTable::prefetch
    (hints run on every step and must stay as free as the path they warm)
Entries that were inlined out of existence (header-only RouteCache::find
usually is) are reported as notes, not errors — their bodies are covered
through their callers.

Self-test
---------
`--self-test` compiles tools/lint_corpus/noalloc/fixture.cpp at -O2 and
verifies the analysis on known ground truth: a hot entry reaching a
deliberate allocation through two helper frames must be flagged with the
full chain; a hot entry allocating only through a gate-named function must
pass; a hot entry calling mmap must be flagged, and the same call behind a
gate-named function must pass; a pure-arithmetic entry must pass; a
relocated tail call must reach its real callee and not the allocating
function objdump labels its unpatched displacement with; a jump into a function's body must resolve to
that function; a call relocation that no function covers must be reported
as unresolved (a reachable one fails the real check, since the
walk cannot follow it).

Unreached library functions (--unreached)
-----------------------------------------
The same call graph, walked from every non-test program instead of from
the hot-path entries: every function the objects of each `bench_*`,
`example_*` and `b6-*` target of --build-dir define, every function of
b6bench (built from benchmark/CMakeLists.txt into --b6bench-dir), and
every function whose address any object's data holds (vtables,
.init_array). Tests are never roots. Any function of namespace beholder6
that a library object defines and the walk does not reach fails the gate,
unless UNREACHED_ALLOWLIST names it; every allowed function is printed
with its reason, and an entry that matches nothing fails as stale. The
canonical trees, Release and -fno-inline like the hot-path analysis, with
benches on:

    cmake -B build-noalloc -DCMAKE_BUILD_TYPE=Release \
          -DBEHOLDER6_BUILD_TESTS=OFF -DCMAKE_CXX_FLAGS=-fno-inline
    cmake --build build-noalloc -j
    cmake -S benchmark -B build-b6bench -DCMAKE_CXX_FLAGS=-fno-inline
    cmake --build build-b6bench --target b6bench -j
    python3 tools/check_noalloc.py --unreached \
          --build-dir build-noalloc --b6bench-dir build-b6bench

Header code is judged too. The gate compiles the library's sources again,
from the tree's compile_commands.json with -fkeep-inline-functions added,
into a temporary directory, so every inline function a library source
sees gets a body in a library object; the programs' objects are read as
built, so they hold only what they call. A program's copy of a header
function may be a local clone (`f() [clone .isra.0]`) rather than the
function's own symbol, so a function counts as reached when the walk
reaches any symbol whose demangled name, clone suffix removed, is its
name.

What it cannot see (blind spots, stated rather than hidden):
  * header constructors, destructors and operator=: an implicitly
    defined one reads like a written one, so none of vague linkage is
    judged (one defined in a .cpp sits in `.text`, not in a COMDAT
    section, and is judged); nor are those of a class private to one
    source file (anonymous namespace, function-local), whose implicit
    ones are local `.text` symbols too: tests cannot reach such a class,
    so what goes unjudged there is dead code, not test-only code;
  * a captureless lambda's static invoker (`_FUN`) and its conversion to a
    function pointer, emitted beside every such lambda: not judged;
  * template instantiations (one per use, not per source function): not
    judged;
  * a `constexpr` function that only constant expressions use has no call
    in any object, so it reads as unreached (allowlist it);
  * whether a virtual override is ever called: its vtable holds its
    address, so it always counts as reached;
  * a compiler that drops a call to a pure function whose result is unused
    can make its callee read as unreached.
`--unreached --self-test` compiles tools/lint_corpus/unreached/ (a library,
a program and a test object; the library with -fkeep-inline-functions) and
checks that a function only the test object calls is reported (also when
its own switch table in data points into its body: data relocations count
only at a function's exact start, and also when it is a header-inline
accessor, and also when it is a constructor written in a .cpp), that an
accessor the program reaches only through a local clone passes, that
implicit constructors (of a header class and of a class in an anonymous
namespace) and a lambda's invoker are emitted but not judged, that one only a vtable holds passes, and that an
allowlisted one passes with its reason while a stale entry is reported.

Exit codes: 0 clean (or self-test pass, or graceful skip when objdump is
missing), 1 findings (or self-test fail), 2 usage/setup error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
import tempfile
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
CORPUS = REPO_ROOT / "tools" / "lint_corpus" / "noalloc" / "fixture.cpp"

# Allocator symbols (mangled / C): reaching any of these is the violation.
ALLOC_SYMBOLS = {
    "_Znwm", "_Znam",                          # operator new / new[]
    "_ZnwmSt11align_val_t", "_ZnamSt11align_val_t",
    "_ZnwmRKSt9nothrow_t", "_ZnamRKSt9nothrow_t",
    "_ZnwmSt11align_val_tRKSt9nothrow_t", "_ZnamSt11align_val_tRKSt9nothrow_t",
    "malloc", "calloc", "realloc", "aligned_alloc", "posix_memalign",
    "valloc", "memalign", "strdup", "strndup",
    "mmap", "mmap64", "mremap",                # page mappings (large tables)
}

# Cold gates, matched against *demangled* names. Each entry carries its
# justification — the reason this function is allowed to allocate.
DEFAULT_GATES: list[tuple[str, str]] = [
    (r"beholder6::netbase::detail::FlatTable<.*>::rehash\(",
     "amortized table growth; pre-reserved tables never re-enter it "
     "(B6_COLDPATH keeps it outlined)"),
    (r"beholder6::simnet::RouteCache::insert\(",
     "route-cache miss path: runs only after Topology::path_into resolved "
     "a route the cache lacked (B6_COLDPATH)"),
    (r"beholder6::simnet::RouteCache::grow\(",
     "route-cache table growth (B6_COLDPATH)"),
    (r"beholder6::simnet::PacketPool::grow_slots\(",
     "packet-pool warm-up: slot storage persists across clear() "
     "(B6_COLDPATH)"),
    (r"beholder6::simnet::Topology::direct_path_into\(",
     "path oracle for a VantageInfo that is not an element of vantages() "
     "(tests, ad-hoc callers): it runs the AS-level BFS. Network only "
     "resolves for its Topology's own vantages, which copy a precomputed "
     "chain instead (B6_COLDPATH)"),
    (r"beholder6::simnet::Network::apply_dynamics_event\(",
     "scheduled churn application: runs once per DynamicsEvent (a handful "
     "per campaign), never on the eventless fast path — the inline "
     "apply_due_dynamics() cursor check costs one compare (B6_COLDPATH)"),
    (r"beholder6::simnet::Network::duplicate_replies\(",
     "reply duplication under a kLossModel swap: dup_prob_ is 0.0 with no "
     "schedule, so the steady state never enters it (B6_COLDPATH)"),
    (r"beholder6::simnet::Topology::hosts_in\(",
     "per-/64 host enumeration, used by seed generation and the gateway "
     "oracle's cold half — host_at is the hot-path liveness oracle and "
     "stays gated OUT (it must not allocate)"),
    # libstdc++ amortized-growth helpers: the outlined slow half of
    # push_back/resize/insert into retained capacity. Steady state never
    # executes them; per-probe *fresh* vectors would instead call operator
    # new directly (visible) or construct via _M_allocate in the hot frame.
    # push_back/emplace_back ARE the amortized-growth protocol: their only
    # allocating branch is capacity doubling (same branch as
    # _M_realloc_insert, one frame earlier — GCC's IPA-SRA clones sometimes
    # reach the allocator without the helper frame). Per-call *fresh*
    # containers are still caught: their constructors allocate via
    # _M_create_storage/_M_range_initialize, which stay ungated.
    (r"std::vector<.*>::push_back", "libstdc++ amortized growth"),
    (r"std::vector<.*>::emplace_back", "libstdc++ amortized growth"),
    (r"std::vector<.*>::_M_realloc_insert", "libstdc++ amortized growth"),
    (r"std::vector<.*>::_M_realloc_append", "libstdc++ amortized growth"),
    (r"std::vector<.*>::_M_default_append",
     "libstdc++ resize() growth into retained capacity"),
    (r"std::vector<.*>::_M_fill_insert", "libstdc++ amortized growth"),
    (r"std::vector<.*>::_M_range_insert", "libstdc++ amortized growth"),
    (r"std::vector<.*>::_M_fill_assign",
     "libstdc++ assign() growth into retained capacity"),
    (r"std::vector<.*>::_M_assign_aux",
     "libstdc++ assign() growth into retained capacity"),
    (r"std::vector<.*>::_M_allocate_and_copy",
     "libstdc++ operator= growth into retained capacity (steady state "
     "reuses capacity and never enters it)"),
    (r"std::vector<.*>::reserve\(", "explicit one-time capacity setup"),
    (r"std::__cxx11::basic_string<.*>::_M_",
     "string growth/COW helpers: strings appear on error paths only"),
    # Abort/throw: once the program is throwing or dying, allocation is
    # irrelevant to the steady-state contract.
    (r"^std::__throw_", "libstdc++ exception-raising helper (error path)"),
    (r"^__cxa_", "C++ ABI exception machinery (error path)"),
    (r"^_Unwind_", "unwinder (error path)"),
    (r"beholder6::netbase::detail::dcheck_fail\(",
     "B6_DCHECK failure path: aborts"),
    (r"^std::terminate", "death path"),
    (r"^abort$|^__assert_fail$", "death path"),
]

DEFAULT_ENTRIES: list[str] = [
    r"beholder6::simnet::Network::inject_view\(",
    r"beholder6::simnet::Network::inject_impl\(",
    r"beholder6::simnet::Network::resolve_path\(",
    r"beholder6::simnet::RouteCache::find\(",
    r"beholder6::wire::encode_probe_into\(",
    r"beholder6::wire::decode_reply\(",
    r"beholder6::simnet::Topology::host_at\(",
    r"beholder6::simnet::Topology::path_into\(",
    r"beholder6::simnet::Topology::origin\(",
    r"beholder6::campaign::CampaignReactor::warm_lookahead\(",
    r"beholder6::simnet::Network::prefetch_state\(",
    r"beholder6::simnet::PacketPool::prefetch\(",
    r"beholder6::netbase::detail::FlatTable<.*>::prefetch\(",
]

DEFINE_RE = re.compile(r"^[0-9a-f]+ <(.+)>:\s*$")
# objdump -t function-symbol lines: addr, flag letters, 'F', section, size,
# name. Needed for alias resolution: GCC emits C1/C2 constructor (and
# D1/D2 destructor) pairs as two symbols at one address, and the
# disassembly header shows only one of them while call sites may reference
# the other — without the symbol table those edges would dangle.
SYMTAB_RE = re.compile(
    r"^([0-9a-f]+)\s+\S+\s+F\s+(\S+)\s+([0-9a-f]+)\s+(?:\.hidden\s+)?(\S+)$")
# `call 12ab <sym+0x10>` / `jmp 0 <sym>` — same-object resolved targets.
CALL_RE = re.compile(
    r"\b(?:call|jmp)[a-z]*\s+[0-9a-f]+\s+<([^>+]+)(?:\+0x[0-9a-f]+)?>")
# `lea 0x976(%rip),%rax  # 1110 <sym>` — a same-section address taken
# (a std::function storing its lambda's invoker), resolved like a call.
LEA_RE = re.compile(
    r"\blea\s+\S+\(%rip\),\S+\s+#\s+[0-9a-f]+\s+<([^>+]+)(?:\+0x[0-9a-f]+)?>")
# Interleaved relocation lines — cross-object / external targets. The
# operand is either `symbol-0x4` (target = symbol) or, for calls to local
# functions in another section, `.text+0x1a0` (target = the function that
# starts at, or else contains, section offset addend+4, resolved via the
# symbol table). GOTPCREL forms load a function's address through the GOT
# (position-independent code taking `&f`); they end an edge like a call.
RELOC_RE = re.compile(
    r"^\s+[0-9a-f]+:\s+R_X86_64_(?:PLT32|PC32|REX_GOTPCRELX|GOTPCRELX|GOTPCREL)"
    r"\s+(\S+?)(?:([+-])0x([0-9a-f]+))?$")
# `objdump -r` output: a section's relocation records, and an absolute
# 64-bit address stored in data (a vtable slot, a function pointer in a
# table, an .init_array entry).
RELOC_SECTION_RE = re.compile(r"^RELOCATION RECORDS FOR \[(.+)\]:$")
DATA_RELOC_RE = re.compile(
    r"^[0-9a-f]+\s+R_X86_64_64\s+(\S+?)(?:([+-])0x([0-9a-f]+))?$")
# Sections whose relocations are not data holding a function's address:
# code (walked through `objdump -dr`), unwind tables and debug info.
NOT_DATA = (".text", ".eh_frame", ".debug", ".gcc_except_table")


def run(cmd: list[str]) -> str:
    return subprocess.run(cmd, check=True, capture_output=True,
                          text=True).stdout


class CallGraph:
    def __init__(self) -> None:
        self.edges: dict[str, set[str]] = {}   # mangled -> mangled callees
        self.defined: set[str] = set()
        self.alias: dict[str, str] = {}        # co-located symbol -> primary
        self.section: dict[str, str] = {}      # function symbol -> section
        # Section-relative call relocations that name no function symbol:
        # mangled caller -> relocation operands. An edge the walk cannot
        # follow could hide an allocation, so reachable ones are reported.
        self.unresolved: dict[str, list[str]] = {}

    def add_object(self, obj: Path) -> tuple[set[str], set[str]]:
        """Add one object's functions and edges. Returns the functions it
        defines and the symbols whose address its data holds."""
        # Symbol table first: group function symbols by (section, address)
        # so that when the disassembly names one symbol of a co-located
        # pair (C1/C2 ctors, D1/D2 dtors), references to the other still
        # resolve to the same node.
        colocated: dict[tuple[str, str], list[str]] = {}
        by_offset: dict[tuple[str, int], str] = {}
        spans: dict[str, list[tuple[int, int, str]]] = {}
        data_relocs: list[tuple[str, int]] = []  # (symbol or section, addend)
        section: str | None = None
        for line in run(["objdump", "-tr", str(obj)]).splitlines():
            sm = SYMTAB_RE.match(line)
            if sm:
                addr, sect, size, name = sm.groups()
                colocated.setdefault((sect, addr), []).append(name)
                self.section.setdefault(name, sect)
                by_offset.setdefault((sect, int(addr, 16)), name)
                spans.setdefault(sect, []).append(
                    (int(addr, 16), int(size, 16), name))
                continue
            hm = RELOC_SECTION_RE.match(line)
            if hm:
                section = hm.group(1)
                continue
            dm = DATA_RELOC_RE.match(line)
            if dm and section is not None and not section.startswith(NOT_DATA):
                base, sign, addend = dm.groups()
                off = int(addend or "0", 16) * (-1 if sign == "-" else 1)
                data_relocs.append((base, off))

        def function_at(section: str, off: int) -> str | None:
            if (section, off) in by_offset:
                return by_offset[(section, off)]
            # A jump into a function's body (a `.cold` fragment resuming
            # its parent) is control flow within that function.
            for start, size, name in spans.get(section, ()):
                if start <= off < start + size:
                    return name
            return None

        # A vtable slot or function pointer holds a function's start. An
        # address inside a function's body (a non-PIC jump table in
        # .rodata) is control flow within it, not a reference, so data
        # relocations resolve through exact starts only.
        data_refs: set[str] = set()
        for base, off in data_relocs:
            target = by_offset.get((base, off)) if base.startswith(".") else base
            if target is not None:
                data_refs.add(target)

        out = run(["objdump", "-dr", "--no-show-raw-insn", str(obj)])
        defined: set[str] = set()
        current: str | None = None
        # A call's displayed target is only real if no relocation follows
        # it: an unrelocated call shows its placeholder displacement, which
        # objdump labels with whatever symbol sits at that offset (often
        # some unrelated `.cold` clone) — a phantom edge.
        pending: str | None = None
        pending_call = False  # only a call's relocation can go unresolved
        for line in out.splitlines():
            rm = RELOC_RE.match(line)
            if pending is not None and not rm and not pending.startswith(".L"):
                self.edges[current].add(pending)
            after_call = pending is not None and pending_call
            pending = None
            dm = DEFINE_RE.match(line)
            if dm:
                current = dm.group(1)
                self.defined.add(current)
                defined.add(current)
                # Weak/template symbols recur across objects; union edges.
                self.edges.setdefault(current, set())
                continue
            if current is None:
                continue
            if rm:
                base, sign, addend = rm.groups()
                if base.startswith("."):
                    # Section-relative: the call target sits at
                    # addend + 4 (the PC32 addend folds in the -4 of the
                    # call encoding) within that section.
                    off = int(addend or "0", 16) * (-1 if sign == "-" else 1)
                    target = function_at(base, off + 4)
                    if target is not None:
                        self.edges[current].add(target)
                    elif after_call:
                        self.unresolved.setdefault(current, []).append(
                            line.split()[-1])
                else:
                    self.edges[current].add(base)
                continue
            cm = CALL_RE.search(line)
            lm = None if cm else LEA_RE.search(line)
            if cm or lm:
                pending = (cm or lm).group(1)
                pending_call = cm is not None
        if pending is not None and not pending.startswith(".L"):
            self.edges[current].add(pending)
        for group in colocated.values():
            primaries = [n for n in group if n in self.defined]
            if primaries:
                for name in group:
                    if name not in self.defined:
                        self.alias.setdefault(name, primaries[0])
        return defined, data_refs

    def canon(self, sym: str) -> str:
        return self.alias.get(sym, sym)


def demangle(symbols: list[str]) -> dict[str, str]:
    if not symbols:
        return {}
    proc = subprocess.run(["c++filt"], input="\n".join(symbols) + "\n",
                          capture_output=True, text=True, check=True)
    names = proc.stdout.splitlines()
    return dict(zip(symbols, names))


def analyze(objects: list[Path], entry_patterns: list[str],
            gates: list[tuple[str, str]]) -> dict:
    graph = CallGraph()
    for obj in objects:
        graph.add_object(obj)

    all_syms = sorted(set(graph.edges) |
                      {c for cs in graph.edges.values() for c in cs})
    dem = demangle(all_syms)

    entry_res = [re.compile(p) for p in entry_patterns]
    gate_res = [(re.compile(p), why) for p, why in gates]

    entries: list[str] = []
    missing_entries: list[str] = []
    for pat, cre in zip(entry_patterns, entry_res):
        hits = [s for s in graph.defined if cre.search(dem.get(s, s))]
        if hits:
            entries.extend(hits)
        else:
            missing_entries.append(pat)

    def gate_reason(sym: str) -> str | None:
        name = dem.get(sym, sym)
        for cre, why in gate_res:
            if cre.search(name):
                return why
        return None

    # BFS with parent links for witness chains. A symbol is visited once;
    # the first chain that reaches it is the witness.
    parent: dict[str, str | None] = {}
    findings: list[dict] = []
    gates_hit: dict[str, dict] = {}
    queue: deque[str] = deque()
    for e in sorted(set(entries)):
        if e not in parent:
            parent[e] = None
            queue.append(e)

    def chain_of(sym: str) -> list[str]:
        chain = []
        cur: str | None = sym
        while cur is not None:
            chain.append(dem.get(cur, cur))
            cur = parent[cur]
        return list(reversed(chain))

    unresolved: list[dict] = []
    while queue:
        sym = queue.popleft()
        for operand in graph.unresolved.get(sym, ()):
            unresolved.append({"relocation": operand, "chain": chain_of(sym)})
        for callee in sorted(graph.canon(c) for c in graph.edges.get(sym, ())):
            if callee in ALLOC_SYMBOLS:
                findings.append({
                    "allocator": dem.get(callee, callee),
                    "chain": chain_of(sym) + [dem.get(callee, callee)],
                })
                continue
            if callee in parent:
                continue
            parent[callee] = sym
            why = gate_reason(callee)
            if why is not None:
                name = dem.get(callee, callee)
                if name not in gates_hit:
                    gates_hit[name] = {"reason": why,
                                       "witness_chain": chain_of(callee)}
                continue  # traversal stops at the gate
            if callee in graph.defined:
                queue.append(callee)
            # Undefined non-allocator externals (memcpy, madvise, ...) are
            # leaves: they do not allocate from the C++ heap.

    # Dedup findings by (allocator, hot frame directly above it).
    seen = set()
    unique = []
    for f in findings:
        key = (f["allocator"], f["chain"][-2] if len(f["chain"]) > 1 else "")
        if key not in seen:
            seen.add(key)
            unique.append(f)

    return {
        "objects": len(objects),
        "functions": len(graph.defined),
        "entries": sorted(dem.get(e, e) for e in set(entries)),
        "entry_patterns_unmatched": missing_entries,
        "reachable_functions": len(parent),
        "cold_gates_hit": gates_hit,
        "findings": unique,
        "unresolved_calls": unresolved,
    }


def resolve(path: str) -> Path:
    p = Path(path)
    return p if p.is_absolute() else REPO_ROOT / p


def find_objects(build_dir: Path) -> list[Path]:
    lib_dir = build_dir / "CMakeFiles" / "beholder6.dir"
    if not lib_dir.is_dir():
        return []
    return sorted(lib_dir.rglob("*.o"))


def print_report(rep: dict, verbose: bool) -> None:
    print(f"check_noalloc: {rep['objects']} object(s), "
          f"{rep['functions']} function(s), "
          f"{len(rep['entries'])} entry point(s), "
          f"{rep['reachable_functions']} reachable")
    for pat in rep["entry_patterns_unmatched"]:
        print(f"  note: entry pattern {pat!r} matched no symbol "
              f"(inlined into its callers; covered through them)")
    if verbose:
        for name, info in sorted(rep["cold_gates_hit"].items()):
            print(f"  gate: {name}")
            print(f"        reason: {info['reason']}")
            print(f"        via:    {' -> '.join(info['witness_chain'])}")
    else:
        print(f"  {len(rep['cold_gates_hit'])} cold gate(s) absorb the "
              f"allocating paths (--verbose or --report for the list)")
    for f in rep["findings"]:
        print("  FINDING: hot path reaches an allocator outside every "
              "cold gate:")
        for i, frame in enumerate(f["chain"]):
            print(f"    {'  ' * min(i, 8)}{frame}")
    for u in rep["unresolved_calls"]:
        print(f"  UNRESOLVED: call relocation {u['relocation']} names no "
              f"function symbol; the walk cannot follow it from:")
        for i, frame in enumerate(u["chain"]):
            print(f"    {'  ' * min(i, 8)}{frame}")


# ---- Unreached library functions (--unreached) ----------------------------

UNREACHED_CORPUS = REPO_ROOT / "tools" / "lint_corpus" / "unreached"

# The non-test programs of the main tree: CMake target directories whose
# objects root the walk. b6bench comes from its own tree (--b6bench-dir).
PROGRAM_GLOBS = ("bench_*", "example_*", "b6-*")

# Library functions that no non-test program reaches and that stay anyway:
# a demangled-name regex and the reason, printed on every run. An entry
# that matches no unreached function is stale and fails the gate.
UNREACHED_ALLOWLIST: list[tuple[str, str]] = [
    (r"^beholder6::wire::decode_probe\(",
     "test oracle for the probe encoder; it shares the private parse_probe "
     "with decode_reply, so moving it into tests/support would export that "
     "parser"),
    (r"^beholder6::campaign::CampaignReactor::merged\(\)",
     "the reactor's canonical merged stream (and its sort): the result "
     "surface its determinism gates compare; b6bench names "
     "ReactorOptions::collect_merged and turns it off"),
    (r"^beholder6::Rng::min\(\)",
     "a UniformRandomBitGenerator member: <random> distributions and the "
     "concept check read it, only in constant expressions"),
]

# GCC gives each function of vague linkage (inline, implicitly defined or a
# template instantiation: header code) a COMDAT section named after it,
# `.text._ZN...` (or `.text.unlikely._ZN...` for its cold part); a clone
# of one gets `.text._ZN....constprop.0`. Functions defined in a .cpp go
# to `.text`, `.text.unlikely`, `.text.startup` or `.text.hot`.
VAGUE_LINKAGE_RE = re.compile(r"^\.text(?:\.unlikely|\.hot|\.startup)?\._Z")
# GCC clone suffixes as c++filt prints them: `f(int) [clone .constprop.0]`.
CLONE_RE = re.compile(r" \[clone [^\]]+\]")
# Operator names whose brackets would unbalance a scan of `<>` or `()`.
OPERATOR_RE = re.compile(r"operator(?:<<=|>>=|<=>|<<|>>|<=|>=|->\*|->|<|>|\(\))")
# Trailing cv- and ref-qualifiers of a member function.
QUALIFIER_RE = re.compile(r"(?: const| volatile| &&| &)+$")


def name_components(demangled: str) -> list[str]:
    """The `::` components of a demangled function's qualified name,
    without its parameter list, qualifiers or clone suffix:
    `ns::Foo<int>::get(int) const` -> ["ns", "Foo<int>", "get"]. A
    template function's return type stays on the first component."""
    s = QUALIFIER_RE.sub("", CLONE_RE.sub("", demangled))
    s = OPERATOR_RE.sub("operator@", s)
    depth = 0
    for i in range(len(s) - 1, -1, -1) if s.endswith(")") else ():
        depth += {")": 1, "(": -1}.get(s[i], 0)
        if depth == 0:  # the parameter list's open paren
            s = s[:i]
            break
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(s):
        if ch in "(<{[":
            depth += 1
        elif ch in ")>}]":
            depth -= 1
        elif depth == 0 and s.startswith("::", i) \
                and not s.startswith("operator ", start):
            parts.append(s[start:i])
            start = i + 2
    parts.append(s[start:])  # a conversion operator's type stays whole
    return parts


def strip_groups(component: str) -> str:
    """A component without its bracketed groups (an enclosing function's
    parameters, a lambda's signature), so only its own name remains."""
    out, depth = [], 0
    for ch in component:
        if ch in "({[":
            depth += 1
        elif ch in ")}]":
            depth -= 1
        elif depth == 0:
            out.append(ch)
    return "".join(out)


def unjudged(demangled: str, vague: bool) -> bool:
    """Functions whose symbols cannot say whether source code asked for
    them: a captureless lambda's static invoker (`_FUN`) and its
    conversion to a function pointer (emitted beside every such lambda);
    constructors, destructors and operator= (an implicit one reads like a
    written one) of vague linkage (`vague`: header code) or of a class
    private to one source file (in an anonymous namespace or local to a
    function, whose implicit ones are local `.text` symbols); and template
    instantiations of vague linkage (one per use, not per source
    function). An implicit special member of any other class always has
    vague linkage, so one such defined in a .cpp was written there and is
    judged."""
    parts = name_components(demangled)
    last = parts[-1]
    owner = parts[-2] if len(parts) > 1 else ""
    if owner.startswith("{lambda") and (last == "_FUN"
                                        or last.startswith("operator ")):
        return True
    # `(anonymous namespace)`, or an enclosing function's parameter list.
    private = any("(" in p.split("<", 1)[0] for p in parts[:-1])
    special = (last.startswith("~") or last == "operator="
               or last == owner.split("<", 1)[0])
    if special and (vague or private):
        return True
    return vague and any("<" in strip_groups(p) for p in parts)


def namespace_symbol_re(namespace: str) -> re.Pattern[str]:
    """Mangled names of functions in `namespace`: Itanium mangling opens
    with the nested name (`N`, after `Z` for an entity local to a function,
    with any K/V/R/O qualifiers), whose first component is the namespace."""
    return re.compile(rf"^_ZZ?N[KVRO]*{len(namespace)}{namespace}")


def find_unreached(library: list[Path], programs: list[Path], namespace: str,
                   allowlist: list[tuple[str, str]],
                   others: tuple[Path, ...] = ()) -> dict:
    """Walk the call graph from every function the program objects define
    and every function whose address any data holds (vtables included).
    Report each function of `namespace` that a library object defines and
    the walk does not reach. `others` (test objects, in the self-test) add
    their edges but root nothing."""
    graph = CallGraph()
    library_defined: set[str] = set()
    roots: set[str] = set()
    for obj in library:
        defined, data_refs = graph.add_object(obj)
        library_defined |= defined
        roots |= data_refs
    for obj in programs:
        defined, data_refs = graph.add_object(obj)
        roots |= defined | data_refs
    for obj in others:
        graph.add_object(obj)

    reached: set[str] = set()
    queue = deque(graph.canon(r) for r in roots)
    while queue:
        sym = queue.popleft()
        if sym in reached:
            continue
        reached.add(sym)
        queue.extend(graph.canon(c) for c in graph.edges.get(sym, ()))

    ns_re = namespace_symbol_re(namespace)
    ours = sorted(s for s in library_defined if ns_re.match(s))
    dem = demangle(sorted(set(ours) | reached))
    # One source function, many symbols: C1/C2 constructors, D0/D1/D2
    # destructors, .constprop/.isra/.part/.cold clones, and the copies of
    # a header function that each object emits (a program's may be a local
    # clone, named apart from the library's) demangle alike once the clone
    # suffix is gone. Reaching any of them reaches it.
    reached_names = {CLONE_RE.sub("", dem.get(s, s)) for s in reached}
    functions: set[str] = set()
    skipped: set[str] = set()
    for sym in ours:
        name = CLONE_RE.sub("", dem.get(sym, sym))
        vague = bool(VAGUE_LINKAGE_RE.match(graph.section.get(sym, "")))
        (skipped if unjudged(name, vague) else functions).add(name)
    unreached = sorted(n for n in functions if n not in reached_names)

    allow_res = [(re.compile(pat), pat, why) for pat, why in allowlist]
    allowed: list[dict] = []
    used: set[str] = set()
    findings: list[str] = []
    for name in unreached:
        entry = next(((pat, why) for cre, pat, why in allow_res
                      if cre.search(name)), None)
        if entry is None:
            findings.append(name)
        else:
            used.add(entry[0])
            allowed.append({"function": name, "reason": entry[1]})
    return {
        "library_objects": len(library),
        "program_objects": len(programs),
        "library_functions": len(functions),
        "reached": len(functions) - len(unreached),
        "unjudged": sorted(skipped),
        "allowed": allowed,
        "stale_allowlist": [pat for pat, _ in allowlist if pat not in used],
        "findings": findings,
    }


def find_program_objects(build_dir: Path, b6bench_dir: Path
                         ) -> tuple[list[Path], list[str]]:
    """Objects of every non-test program, and what is missing."""
    objects: list[Path] = []
    missing: list[str] = []
    targets = [(build_dir, pattern) for pattern in PROGRAM_GLOBS]
    targets.append((b6bench_dir, "b6bench"))
    for tree, pattern in targets:
        found = sorted(o for d in (tree / "CMakeFiles").glob(pattern + ".dir")
                       for o in d.rglob("*.o"))
        if not found:
            missing.append(f"{tree}/CMakeFiles/{pattern}.dir")
        objects += found
    return objects, missing


def print_unreached_report(rep: dict) -> None:
    print(f"check_noalloc --unreached: {rep['library_objects']} library and "
          f"{rep['program_objects']} program object(s), "
          f"{rep['library_functions']} library function(s), "
          f"{rep['reached']} reached")
    for a in rep["allowed"]:
        print(f"  allowed: {a['function']}")
        print(f"           reason: {a['reason']}")
    for pat in rep["stale_allowlist"]:
        print(f"  STALE ALLOWLIST ENTRY: {pat!r} matches no unreached "
              f"function; delete it")
    for name in rep["findings"]:
        print(f"  UNREACHED: {name}")


def run_unreached_self_test() -> int:
    cxx = shutil.which("g++") or shutil.which("c++") or shutil.which("clang++")
    if cxx is None:
        print("self-test: no C++ compiler on PATH", file=sys.stderr)
        return 1
    objs: dict[str, Path] = {}
    with tempfile.TemporaryDirectory() as td:
        for part in ("library", "program", "test"):
            src = UNREACHED_CORPUS / f"{part}.cpp"
            if not src.exists():
                print(f"self-test: fixture missing: {src}", file=sys.stderr)
                return 1
            objs[part] = Path(td) / f"{part}.o"
            # -fno-pic: jump_table()'s switch then becomes a .rodata table
            # of absolute addresses into its own body. The library keeps
            # its inline functions, as keep_inline_library() compiles it.
            keep = ["-fkeep-inline-functions"] if part == "library" else []
            subprocess.run([cxx, "-O2", "-fno-inline", "-fno-pic", *keep,
                            "-std=c++20", "-c", str(src), "-o",
                            str(objs[part])], check=True)
        rep = find_unreached(
            [objs["library"]], [objs["program"]], "unreached_fixture",
            [(r"unreached_fixture::allowlisted\(",
              "fixture allowlist: kept on purpose"),
             (r"unreached_fixture::gone\(", "fixture allowlist: stale")],
            others=(objs["test"],))
    print_unreached_report(rep)
    failures = 0
    if rep["findings"] != ["unreached_fixture::Gauge::Gauge(int)",
                           "unreached_fixture::Meter::peak() const",
                           "unreached_fixture::jump_table(int, int)",
                           "unreached_fixture::test_only(int)"]:
        print(f"self-test: FAIL — expected exactly Gauge::Gauge(int), "
              f"Meter::peak() const, jump_table(int, int) and "
              f"test_only(int) reported, got {rep['findings']}")
        failures += 1
    else:
        print("self-test: a function only a test object calls is reported, "
              "also when a jump table in data points into its body, also "
              "when it is header-inline, and also when it is a constructor "
              "written in a .cpp [ok]")
    if "unreached_fixture::Meter::reading() const" in rep["findings"]:
        print("self-test: FAIL — the inline accessor the program reaches "
              "through its local clone was reported")
        failures += 1
    else:
        print("self-test: an inline accessor a program reaches only "
              "through a local clone passes [ok]")
    for what, name in (
            ("an implicitly defined constructor",
             "unreached_fixture::Meter::Meter()"),
            ("the implicit constructor of a class private to a .cpp",
             "unreached_fixture::(anonymous namespace)::Cell::Cell()"),
            ("a captureless lambda's static invoker",
             "unreached_fixture::used(int)::{lambda(int)#1}::_FUN(int)")):
        if name not in rep["unjudged"] or name in rep["findings"]:
            print(f"self-test: FAIL — {what} was not emitted and skipped: "
                  f"{name}")
            failures += 1
        else:
            print(f"self-test: {what} is emitted and not judged [ok]")
    if rep["allowed"] != [{"function": "unreached_fixture::allowlisted(int)",
                           "reason": "fixture allowlist: kept on purpose"}]:
        print(f"self-test: FAIL — the allowlisted function did not pass with "
              f"its reason: {rep['allowed']}")
        failures += 1
    else:
        print("self-test: the allowlisted function passes with its reason "
              "[ok]")
    if rep["stale_allowlist"] != [r"unreached_fixture::gone\("]:
        print(f"self-test: FAIL — expected the entry for gone() reported "
              f"stale, got {rep['stale_allowlist']}")
        failures += 1
    else:
        print("self-test: an allowlist entry that matches nothing is stale "
              "[ok]")
    # No code calls Square::area; the program dispatches through the vtable.
    if "unreached_fixture::Square::area() const" in rep["findings"]:
        print("self-test: FAIL — the override that only a vtable holds was "
              "reported")
        failures += 1
    else:
        print("self-test: a function reached only through a vtable passes "
              "[ok]")
    if failures:
        print(f"self-test: {failures} mismatch(es)", file=sys.stderr)
        return 1
    print("self-test: fixture verified")
    return 0


# Compiler options that make or name a dependency file (`-MF <file>`
# and `-MT`/`-MQ <target>` take an operand).
DEPFILE_FLAGS = frozenset({"-MD", "-MMD"})
DEPFILE_OPERAND_FLAGS = frozenset({"-MF", "-MT", "-MQ"})


def keep_inline_library(build_dir: Path, out_dir: Path) -> list[Path] | str:
    """Recompile the library's sources from the tree's compile commands
    with -fkeep-inline-functions added, into out_dir, so that every
    header-inline function a library source sees has a body to judge.
    Returns the objects, or what went wrong."""
    database = build_dir / "compile_commands.json"
    if not database.exists():
        return f"no {database} (CMAKE_EXPORT_COMPILE_COMMANDS is on in " \
               f"CMakeLists.txt; configure the tree again)"
    jobs: list[tuple[list[str], str]] = []
    for entry in json.loads(database.read_text()):
        argv = entry.get("arguments") or shlex.split(entry["command"])
        out = argv[argv.index("-o") + 1]
        if "beholder6.dir" not in Path(out).parts:
            continue
        # Dependency-file options would write beside the tree's own
        # objects; drop them, with the operand of those that take one.
        kept: list[str] = []
        skip_operand = False
        for arg in argv:
            if skip_operand:
                skip_operand = False
            elif arg in DEPFILE_OPERAND_FLAGS:
                skip_operand = True
            elif arg not in DEPFILE_FLAGS:
                kept.append(arg)
        argv = kept
        argv[argv.index("-o") + 1] = str(out_dir / f"{len(jobs)}.o")
        # Just before -c, so that a compiler launcher (`ccache c++ ...`)
        # hands the flag to the compiler.
        argv.insert(argv.index("-c"), "-fkeep-inline-functions")
        jobs.append((argv, entry["directory"]))
    if not jobs:
        return f"no library sources in {database}"

    def compile_one(job: tuple[list[str], str]) -> str:
        proc = subprocess.run(job[0], cwd=job[1], capture_output=True,
                              text=True)
        return proc.stderr if proc.returncode else ""

    with ThreadPoolExecutor(max_workers=os.cpu_count() or 1) as pool:
        errors = [e for e in pool.map(compile_one, jobs) if e]
    if errors:
        return f"a library source failed to compile:\n{errors[0]}"
    return sorted(out_dir.glob("*.o"))


def run_unreached(args: argparse.Namespace) -> int:
    build_dir = resolve(args.build_dir)
    b6bench_dir = resolve(args.b6bench_dir)
    programs, missing = find_program_objects(build_dir, b6bench_dir)
    if missing:
        for what in missing:
            print(f"check_noalloc --unreached: no objects under {what}",
                  file=sys.stderr)
        print("  build every target of a tree configured with benches on, "
              "and b6bench from benchmark/CMakeLists.txt (see the module "
              "docstring)", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as td:
        library = keep_inline_library(build_dir, Path(td))
        if isinstance(library, str):
            print(f"check_noalloc --unreached: {library}", file=sys.stderr)
            return 2
        rep = find_unreached(library, programs, "beholder6",
                             UNREACHED_ALLOWLIST)
    print_unreached_report(rep)
    if args.report:
        args.report.write_text(json.dumps(rep, indent=1) + "\n")
        print(f"  report: {args.report}")
    if rep["findings"] or rep["stale_allowlist"]:
        print(f"\ncheck_noalloc --unreached: {len(rep['findings'])} library "
              f"function(s) that no non-test program reaches and "
              f"{len(rep['stale_allowlist'])} stale allowlist entry(ies). "
              f"Delete the function, move it into tests/support if it is a "
              f"test oracle, or allowlist it with a reason.")
        return 1
    print("check_noalloc --unreached: every library function is reached by "
          "a non-test program or allowlisted")
    return 0


def run_self_test() -> int:
    cxx = shutil.which("g++") or shutil.which("c++") or shutil.which("clang++")
    if cxx is None:
        print("self-test: no C++ compiler on PATH", file=sys.stderr)
        return 1
    if not CORPUS.exists():
        print(f"self-test: fixture missing: {CORPUS}", file=sys.stderr)
        return 1
    with tempfile.TemporaryDirectory() as td:
        obj = Path(td) / "fixture.o"
        subprocess.run([cxx, "-O2", "-std=c++20", "-c", str(CORPUS),
                        "-o", str(obj)], check=True)
        rep = analyze(
            [obj],
            entry_patterns=[r"noalloc_fixture::hot_"],
            gates=[(r"noalloc_fixture::cold_gate_",
                    "fixture gate: marked cold by name")] + DEFAULT_GATES)
    failures = 0
    chains = [" -> ".join(f["chain"]) for f in rep["findings"]]
    if len(rep["findings"]) != 3:
        print(f"self-test: FAIL — expected exactly 3 findings, got "
              f"{len(rep['findings'])}: {chains}")
        failures += 1
    else:
        dirty = [c for c in chains if "hot_entry_dirty" in c]
        ctor = [c for c in chains if "hot_entry_ctor" in c]
        mapped = [c for c in chains if "hot_entry_map" in c]
        if len(mapped) != 1 or "hot_entry_map(" not in mapped[0] \
                or not mapped[0].endswith("mmap"):
            print(f"self-test: FAIL — the seeded mmap call was not flagged "
                  f"(or its gated twin was): {chains}")
            failures += 1
        else:
            print(f"self-test: seeded mapping flagged: {mapped[0]}")
        if not dirty or "helper_two" not in dirty[0]:
            print(f"self-test: FAIL — the helper-chain finding misses its "
                  f"seeded frames: {chains}")
            failures += 1
        else:
            print(f"self-test: seeded allocation flagged with full chain: "
                  f"{dirty[0]}")
        if not ctor or "Buf::Buf" not in ctor[0]:
            print(f"self-test: FAIL — the C1/C2 ctor-alias allocation was "
                  f"not traced: {chains}")
            failures += 1
        else:
            print(f"self-test: ctor-alias allocation traced: {ctor[0]}")
    if not any("cold_gate_refill" in g for g in rep["cold_gates_hit"]):
        print("self-test: FAIL — the gated path did not stop at "
              "cold_gate_refill")
        failures += 1
    else:
        print("self-test: gated path stopped at cold_gate_refill [ok]")
    if not any("cold_gate_map" in g for g in rep["cold_gates_hit"]):
        print("self-test: FAIL — the gated mapping did not stop at "
              "cold_gate_map")
        failures += 1
    else:
        print("self-test: gated mapping stopped at cold_gate_map [ok]")
    if any("hot_entry_clean" in "\n".join(f["chain"])
           for f in rep["findings"]):
        print("self-test: FAIL — the clean entry was flagged")
        failures += 1
    else:
        print("self-test: clean entry produced no findings [ok]")
    far = [g for name, g in rep["cold_gates_hit"].items()
           if "cold_gate_far" in name]
    if any("hot_entry_reloc" in c for c in chains):
        print(f"self-test: FAIL — a phantom edge from an unpatched call "
              f"displacement was followed: {chains}")
        failures += 1
    elif not far or "hot_entry_reloc" not in far[0]["witness_chain"][0]:
        print("self-test: FAIL — the section-relative call relocation did "
              "not reach cold_gate_far")
        failures += 1
    else:
        print("self-test: relocated call reached its real callee, no "
              "phantom edge [ok]")
    unresolved = [" -> ".join(u["chain"]) for u in rep["unresolved_calls"]]
    if len(unresolved) != 1 or "hot_entry_unresolved" not in unresolved[0]:
        print(f"self-test: FAIL — expected exactly one unresolved call, "
              f"from hot_entry_unresolved (hot_entry_resume must resolve "
              f"to the function it jumps into): {unresolved}")
        failures += 1
    else:
        print("self-test: call into a function body resolved, call to no "
              "function reported [ok]")
    if failures:
        print(f"self-test: {failures} mismatch(es)", file=sys.stderr)
        return 1
    print("self-test: fixture verified")
    return 0


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(
        description="static no-alloc checker (see module docstring)")
    ap.add_argument("--build-dir", default="build",
                    help="CMake build tree holding the library objects "
                         "(optimized configure; default: build)")
    ap.add_argument("--report", type=Path,
                    help="write the JSON call-graph report here")
    ap.add_argument("--entry", action="append", default=[],
                    help="additional entry-point regex (demangled)")
    ap.add_argument("--self-test", action="store_true",
                    help="verify the analysis on the seeded fixture")
    ap.add_argument("--unreached", action="store_true",
                    help="report library functions that no non-test "
                         "program reaches, instead of the hot-path walk")
    ap.add_argument("--b6bench-dir", default="build-b6bench",
                    help="with --unreached: the benchmark/CMakeLists.txt "
                         "tree holding b6bench's objects "
                         "(default: build-b6bench)")
    ap.add_argument("--verbose", action="store_true")
    args = ap.parse_args(argv)

    for tool in ("objdump", "c++filt"):
        if shutil.which(tool) is None:
            print(f"check_noalloc: no {tool} on PATH — skipping (binutils "
                  f"is present wherever the build runs; CI runs this for "
                  f"real)")
            return 0

    if args.unreached:
        return run_unreached_self_test() if args.self_test \
            else run_unreached(args)
    if args.self_test:
        return run_self_test()

    build_dir = resolve(args.build_dir)
    cache = build_dir / "CMakeCache.txt"
    if cache.exists() and "-fno-inline" not in cache.read_text():
        print("check_noalloc: note — this build tree was not configured "
              "with -fno-inline; inlined container-growth branches will "
              "read as direct allocator calls (see the module docstring "
              "for the canonical analysis configure)")
    objects = find_objects(build_dir)
    if not objects:
        print(f"check_noalloc: no library objects under "
              f"{build_dir}/CMakeFiles/beholder6.dir — build the "
              f"`beholder6` target first", file=sys.stderr)
        return 2

    rep = analyze(objects, DEFAULT_ENTRIES + args.entry, DEFAULT_GATES)
    print_report(rep, args.verbose)
    if args.report:
        args.report.write_text(json.dumps(rep, indent=1) + "\n")
        print(f"  report: {args.report}")
    if rep["findings"]:
        print(f"\ncheck_noalloc: {len(rep['findings'])} hot-path "
              f"allocation(s). Move the allocation behind a B6_COLDPATH "
              f"gate (src/netbase/attr.hpp) if it is genuinely one-time "
              f"setup, or make the path allocation-free.")
        return 1
    if rep["unresolved_calls"]:
        print(f"\ncheck_noalloc: {len(rep['unresolved_calls'])} reachable "
              f"call(s) resolve to no function symbol, so the analysis "
              f"cannot prove them allocation-free.")
        return 1
    print("check_noalloc: hot paths are allocation-free outside the "
          "declared cold gates")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
