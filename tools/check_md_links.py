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
with at least that many lines. CHANGES.md describes earlier trees, so
its line references are not checked, and neither is a reference quoted
as an example inside a double-backtick span (`` `file.cpp:12` ``).

Fenced code blocks are skipped, so quoted/quarantined content cannot
trip it.
"""

import re
import sys
from pathlib import Path

LINK_RE = re.compile(r"!?\[[^\]]*\]\(\s*([^)\s]+)(?:\s+\"[^\"]*\")?\s*\)")
EXTERNAL = ("http://", "https://", "mailto:", "ftp://")
SKIP_DIRS = ("build", ".git", ".claude")
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
    """Yield (line number, reference, path, last cited line)."""
    for lineno, line in body_lines(md):
        for match in LINE_REF_RE.finditer(QUOTED_SPAN_RE.sub("", line)):
            last = int(match.group(3) or match.group(2))
            yield lineno, match.group(0), match.group(1), last


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


def main() -> int:
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
        for lineno, target in links_in(md):
            if target.startswith(EXTERNAL):
                continue
            path, _, fragment = target.partition("#")
            dest = md if not path else md.parent / path
            if path:
                checked += 1
                if not dest.exists():
                    broken.append(
                        f"{rel}:{lineno}: broken relative link '{target}'"
                    )
                    continue
            if fragment and (not path or dest.suffix == ".md"):
                checked += 1
                if fragment not in anchors_of(dest):
                    broken.append(
                        f"{rel}:{lineno}: broken anchor '{target}' "
                        f"(no heading slugs to '#{fragment}' in "
                        f"{dest.relative_to(root)})"
                    )
        if rel.name in LINE_REF_SKIP:
            continue
        for lineno, ref, path, last in line_refs_in(md):
            checked += 1
            dest = next((d for d in (root / path, md.parent / path)
                         if d.is_file()), None)
            if dest is None:
                broken.append(f"{rel}:{lineno}: line reference {ref} "
                              f"names no file")
                continue
            with dest.open("rb") as f:
                lines = sum(1 for _ in f)
            if last > lines:
                broken.append(f"{rel}:{lineno}: line reference {ref} is "
                              f"past the end of {path} ({lines} lines)")
    for line in broken:
        print(line)
    print(f"checked {checked} relative links/anchors/line references, "
          f"{len(broken)} broken")
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
