#!/usr/bin/env python3
"""Static no-alloc checker for the beholder6 hot path.

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
   edges are seen).
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

Exit codes: 0 clean (or self-test pass, or graceful skip when objdump is
missing), 1 findings (or self-test fail), 2 usage/setup error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from collections import deque
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
# Interleaved relocation lines — cross-object / external targets. The
# operand is either `symbol-0x4` (target = symbol) or, for calls to local
# functions in another section, `.text+0x1a0` (target = the function that
# starts at, or else contains, section offset addend+4, resolved via the
# symbol table).
RELOC_RE = re.compile(
    r"^\s+[0-9a-f]+:\s+R_X86_64_(?:PLT32|PC32)\s+(\S+?)(?:([+-])0x([0-9a-f]+))?$")


def run(cmd: list[str]) -> str:
    return subprocess.run(cmd, check=True, capture_output=True,
                          text=True).stdout


class CallGraph:
    def __init__(self) -> None:
        self.edges: dict[str, set[str]] = {}   # mangled -> mangled callees
        self.defined: set[str] = set()
        self.alias: dict[str, str] = {}        # co-located symbol -> primary
        # Section-relative call relocations that name no function symbol:
        # mangled caller -> relocation operands. An edge the walk cannot
        # follow could hide an allocation, so reachable ones are reported.
        self.unresolved: dict[str, list[str]] = {}

    def add_object(self, obj: Path) -> None:
        # Symbol table first: group function symbols by (section, address)
        # so that when the disassembly names one symbol of a co-located
        # pair (C1/C2 ctors, D1/D2 dtors), references to the other still
        # resolve to the same node.
        colocated: dict[tuple[str, str], list[str]] = {}
        by_offset: dict[tuple[str, int], str] = {}
        spans: dict[str, list[tuple[int, int, str]]] = {}
        for line in run(["objdump", "-t", str(obj)]).splitlines():
            sm = SYMTAB_RE.match(line)
            if sm:
                addr, section, size, name = sm.groups()
                colocated.setdefault((section, addr), []).append(name)
                by_offset.setdefault((section, int(addr, 16)), name)
                spans.setdefault(section, []).append(
                    (int(addr, 16), int(size, 16), name))

        def function_at(section: str, off: int) -> str | None:
            if (section, off) in by_offset:
                return by_offset[(section, off)]
            # A jump into a function's body (a `.cold` fragment resuming
            # its parent) is control flow within that function.
            for start, size, name in spans.get(section, ()):
                if start <= off < start + size:
                    return name
            return None

        out = run(["objdump", "-dr", "--no-show-raw-insn", str(obj)])
        current: str | None = None
        # A call's displayed target is only real if no relocation follows
        # it: an unrelocated call shows its placeholder displacement, which
        # objdump labels with whatever symbol sits at that offset (often
        # some unrelated `.cold` clone) — a phantom edge.
        pending: str | None = None
        for line in out.splitlines():
            rm = RELOC_RE.match(line)
            if pending is not None and not rm and not pending.startswith(".L"):
                self.edges[current].add(pending)
            after_call = pending is not None
            pending = None
            dm = DEFINE_RE.match(line)
            if dm:
                current = dm.group(1)
                self.defined.add(current)
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
            if cm:
                pending = cm.group(1)
        if pending is not None and not pending.startswith(".L"):
            self.edges[current].add(pending)
        for group in colocated.values():
            primaries = [n for n in group if n in self.defined]
            if primaries:
                for name in group:
                    if name not in self.defined:
                        self.alias.setdefault(name, primaries[0])

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
    ap.add_argument("--verbose", action="store_true")
    args = ap.parse_args(argv)

    for tool in ("objdump", "c++filt"):
        if shutil.which(tool) is None:
            print(f"check_noalloc: no {tool} on PATH — skipping (binutils "
                  f"is present wherever the build runs; CI runs this for "
                  f"real)")
            return 0

    if args.self_test:
        return run_self_test()

    build_dir = Path(args.build_dir)
    if not build_dir.is_absolute():
        build_dir = REPO_ROOT / build_dir
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
