#!/usr/bin/env python3
"""Fail on broken relative links, anchors or line references in Markdown.

The docs CI job runs this from anywhere (paths resolve against the repo
root, one directory above this script). Checks every `[text](target)`
and `![alt](target)` whose target is not an absolute URL:

  * a path target must exist relative to the Markdown file's own
    directory;
  * a `#fragment` — bare (`#section`, same document) or suffixed onto a
    relative .md path (`docs/FOO.md#section`) — must match a heading in
    the referenced document, using GitHub's anchor slug rules (rendered
    heading text lowercased, punctuation dropped, spaces to hyphens,
    `-N` suffixes for duplicates).

It also checks every backticked source line reference, `path:line` or
`path:first-last` (`src/campaign/reactor.cpp:120`): the path, relative
to the repo root or to the Markdown file's directory, must name a file
with at least that many lines. When the reference directly follows a
backticked C++ name, even across a line break (`` `Pacer`
(`src/campaign/runner.hpp:91`) ``, `` `Name` at `path:line` ``,
`` (`name`, `path:line`) ``), the cited lines themselves must also
contain that name's last component as a word (SYMBOL_SLACK is 0: a
reference to a doc comment cites a range that runs on to the name), so a
reference that code moved out from under is caught, not only one past
the end of the file. The check reads words, not declarations: a
reference shifted onto another use of the same name still passes (an
`iface_router_` reference that lands on a line which writes
`iface_router_` rather than on its declaration, say). CHANGES.md
describes earlier trees, so its line references are not checked, and
neither is a reference quoted as an example inside a double-backtick
span (`` `file.cpp:12` ``).

Fenced code blocks are skipped, so quoted/quarantined content cannot
trip it.

`--self-test` checks tools/lint_corpus/md_links/fixture.md against the
source file beside it: every line ending in `<!-- expect: KIND -->` must
be reported as that kind of breakage, and no other line may be.
"""

import argparse
import re
import sys
from pathlib import Path

LINK_RE = re.compile(r"!?\[[^\]]*\]\(\s*([^)\s]+)(?:\s+\"[^\"]*\")?\s*\)")
EXTERNAL = ("http://", "https://", "mailto:", "ftp://")
SKIP_DIRS = ("build", ".git", ".claude", "lint_corpus")
HEADING_RE = re.compile(r"^ {0,3}(#{1,6})\s+(.*?)\s*#*\s*$")
# Markdown syntax stripped from heading text before slugging (GitHub
# slugs the *rendered* text): inline code/emphasis markers and the
# target half of inline links.
INLINE_LINK_RE = re.compile(r"\[([^\]]*)\]\([^)]*\)")
MARKUP_RE = re.compile(r"[`*]")
NON_SLUG_RE = re.compile(r"[^\w\- ]", re.UNICODE)
# `path:line` or `path:first-last` inside a code span; the path must end
# in a letter-led extension, so host:port and version strings never match.
LINE_REF_RE = re.compile(
    r"`([\w./+-]*\.[A-Za-z][A-Za-z0-9]*):(\d+)(?:-(\d+))?`")
LINE_REF_SKIP = ("CHANGES.md",)
# A double-backtick span quotes backticked text literally: an example.
QUOTED_SPAN_RE = re.compile(r"``.*?``")
# A backticked C++ name (`Pacer`, `Network::inject_view`, `step()`)
# ending the text in front of a line reference, separated from it by at
# most an opening parenthesis, a comma or the word "at".
SYMBOL_BEFORE_RE = re.compile(
    r"`((?:[A-Za-z_]\w*::)*~?[A-Za-z_]\w*)(?:\(\))?`\s*(?:\(|,|\bat\b)?\s*$")
# Lines after the cited ones that may hold the name. None: a reference
# off its name by even one line is reported.
SYMBOL_SLACK = 0
CORPUS = Path(__file__).resolve().parent / "lint_corpus" / "md_links"
EXPECT_RE = re.compile(r"<!-- expect: (\w+) -->\s*$")


def body_lines(md: Path):
    """Yield (line number, line) outside fenced code blocks."""
    in_fence = False
    for lineno, line in enumerate(
        md.read_text(encoding="utf-8").splitlines(), start=1
    ):
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        yield lineno, line


def links_in(md: Path):
    """Yield (line number, link target) outside fenced code blocks."""
    for lineno, line in body_lines(md):
        for match in LINK_RE.finditer(line):
            yield lineno, match.group(1)


def line_refs_in(md: Path):
    """Yield (line number, reference, path, first and last cited line,
    the backticked name directly in front of it or None)."""
    prev = ""
    for lineno, line in body_lines(md):
        text = QUOTED_SPAN_RE.sub("", line)
        for match in LINE_REF_RE.finditer(text):
            first = int(match.group(2))
            last = int(match.group(3) or first)
            symbol = SYMBOL_BEFORE_RE.search(prev + "\n" + text[:match.start()])
            name = symbol.group(1).split("::")[-1].lstrip("~") if symbol else None
            yield lineno, match.group(0), match.group(1), first, last, name
        prev = text


def slugify(heading: str) -> str:
    """GitHub's anchor slug for one rendered heading (sans dedup suffix)."""
    text = INLINE_LINK_RE.sub(r"\1", heading)
    text = MARKUP_RE.sub("", text)
    text = NON_SLUG_RE.sub("", text.lower())
    return text.replace(" ", "-")


def anchors_in(md: Path) -> set:
    """Every anchor GitHub would render for `md`, duplicates suffixed."""
    anchors = set()
    counts = {}
    for _, line in body_lines(md):
        match = HEADING_RE.match(line)
        if not match:
            continue
        slug = slugify(match.group(2))
        n = counts.get(slug, 0)
        counts[slug] = n + 1
        anchors.add(slug if n == 0 else f"{slug}-{n}")
    return anchors


def check_md(md: Path, root: Path, anchors_of) -> tuple:
    """Every breakage in one Markdown file as (line, kind, message), kind
    one of link, anchor, line, symbol; and how many links, anchors and
    line references were checked."""
    broken = []
    checked = 0
    for lineno, target in links_in(md):
        if target.startswith(EXTERNAL):
            continue
        path, _, fragment = target.partition("#")
        dest = md if not path else md.parent / path
        if path:
            checked += 1
            if not dest.exists():
                broken.append((lineno, "link",
                               f"broken relative link '{target}'"))
                continue
        if fragment and (not path or dest.suffix == ".md"):
            checked += 1
            if fragment not in anchors_of(dest):
                broken.append((lineno, "anchor",
                               f"broken anchor '{target}' (no heading slugs "
                               f"to '#{fragment}' in "
                               f"{dest.relative_to(root)})"))
    if md.name in LINE_REF_SKIP:
        return broken, checked
    for lineno, ref, path, first, last, name in line_refs_in(md):
        checked += 1
        dest = next((d for d in (root / path, md.parent / path)
                     if d.is_file()), None)
        if dest is None:
            broken.append((lineno, "line", f"line reference {ref} names no "
                                           f"file"))
            continue
        with dest.open("rb") as f:
            lines = [line.decode("utf-8", "replace") for line in f]
        if last > len(lines):
            broken.append((lineno, "line",
                           f"line reference {ref} is past the end of {path} "
                           f"({len(lines)} lines)"))
            continue
        if name is None:
            continue
        word = re.compile(rf"\b{re.escape(name)}\b")
        cited = lines[first - 1:last + SYMBOL_SLACK]
        if not any(word.search(line) for line in cited):
            broken.append((lineno, "symbol",
                           f"line reference {ref} follows `{name}`, which "
                           f"is not on lines {first}-{last + SYMBOL_SLACK} "
                           f"of {path}"))
    return broken, checked


def run_self_test() -> int:
    fixture = CORPUS / "fixture.md"
    if not fixture.is_file():
        print(f"self-test: fixture missing: {fixture}", file=sys.stderr)
        return 1
    expected = set()
    for lineno, line in enumerate(
            fixture.read_text(encoding="utf-8").splitlines(), start=1):
        match = EXPECT_RE.search(line)
        if match:
            expected.add((lineno, match.group(1)))
    broken, checked = check_md(fixture, CORPUS, anchors_in)
    got = {(lineno, kind) for lineno, kind, _ in broken}
    for lineno, kind in sorted(expected - got):
        print(f"self-test: MISSED   fixture.md:{lineno} expected [{kind}]")
    for lineno, kind in sorted(got - expected):
        print(f"self-test: SPURIOUS fixture.md:{lineno} flagged [{kind}]")
    if got != expected or not expected:
        print("self-test: FAIL", file=sys.stderr)
        return 1
    print(f"self-test: {checked} references checked, {len(got)} expected "
          f"breakages flagged")
    return 0


def main(argv: list) -> int:
    ap = argparse.ArgumentParser(
        description="check Markdown links, anchors and line references "
                    "(see module docstring)")
    ap.add_argument("--self-test", action="store_true",
                    help="verify the checker against "
                         "tools/lint_corpus/md_links/")
    if ap.parse_args(argv).self_test:
        return run_self_test()
    root = Path(__file__).resolve().parent.parent
    broken = []
    checked = 0
    anchor_cache = {}

    def anchors_of(md: Path) -> set:
        key = md.resolve()
        if key not in anchor_cache:
            anchor_cache[key] = anchors_in(md)
        return anchor_cache[key]

    for md in sorted(root.rglob("*.md")):
        rel = md.relative_to(root)
        if any(part.startswith(SKIP_DIRS) for part in rel.parts[:-1]):
            continue
        found, n = check_md(md, root, anchors_of)
        checked += n
        broken += [f"{rel}:{lineno}: {message}" for lineno, _, message in found]
    for line in broken:
        print(line)
    print(f"checked {checked} relative links/anchors/line references, "
          f"{len(broken)} broken")
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
