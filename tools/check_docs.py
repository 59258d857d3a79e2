#!/usr/bin/env python3
"""Documentation lint for CI (the docs-check job).

Four checks, all against working-tree files only (no network):

1. Intra-repo markdown links. Every relative link target in a tracked
   *.md file must exist on disk, and a link's "#anchor" fragment must
   resolve to a real heading of the target markdown file (GitHub slug
   rules) — a link to a section that was renamed or deleted fails, not
   just a link to a missing file. External schemes (http/https/mailto)
   are skipped; in-page "#anchor" links are checked against the current
   file's own headings.

2. Public observability, execution, algebra, expression, diff, serving
   and persistence headers. Every header under src/obs/, src/exec/,
   src/algebra/, src/expr/, src/diff/, src/serve/ and src/persist/ must
   open with a file-top comment block and carry a comment directly above
   each namespace-scope class/struct definition — these headers are the
   documented surface of docs/OBSERVABILITY.md, of DESIGN.md "Compiled
   execution" (plans, expressions and the diffs APPLY binds),
   "Service model & housekeeping" and "Persistence & recovery", so an
   undocumented type is a contract gap, not a style nit.

3. The architecture map. docs/ARCHITECTURE.md must mention every
   src/<subsystem> directory that holds tracked sources, so the
   subsystem map cannot silently fall behind the tree.

4. Source line width. Every line of a tracked *.h/*.cc file fits the
   ColumnLimit of .clang-format, counted in characters — the one
   clang-format rule this check can verify without clang-format itself.

Exits non-zero listing every violation; prints nothing else on success.
"""

import os
import re
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# [text](target) — good enough for the hand-written markdown in this repo;
# images (![alt](target)) match too via the optional bang.
LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
SKIP_SCHEMES = ("http://", "https://", "mailto:")


def tracked_files(suffix):
    out = subprocess.run(
        ["git", "ls-files", f"*{suffix}"],
        cwd=REPO, capture_output=True, text=True, check=True)
    return [line for line in out.stdout.splitlines() if line]


def strip_code(text):
    """Removes fenced and inline code spans so example links are ignored."""
    text = re.sub(r"```.*?```", "", text, flags=re.DOTALL)
    return re.sub(r"`[^`\n]*`", "", text)


HEADING_RE = re.compile(r"^#{1,6}\s+(.*)$")

_anchor_cache = {}


def heading_anchors(path):
    """The GitHub-style anchor slugs of a markdown file's headings."""
    if path in _anchor_cache:
        return _anchor_cache[path]
    with open(path, encoding="utf-8") as f:
        text = re.sub(r"```.*?```", "", f.read(), flags=re.DOTALL)
    anchors, counts = set(), {}
    for line in text.splitlines():
        match = HEADING_RE.match(line)
        if not match:
            continue
        title = match.group(1).strip().replace("`", "")
        slug = re.sub(r"[^\w\- ]", "", title.lower()).strip()
        slug = slug.replace(" ", "-")
        n = counts.get(slug, 0)
        counts[slug] = n + 1
        anchors.add(slug if n == 0 else f"{slug}-{n}")
    _anchor_cache[path] = anchors
    return anchors


def check_links():
    errors = []
    for md in tracked_files(".md"):
        path = os.path.join(REPO, md)
        with open(path, encoding="utf-8") as f:
            text = strip_code(f.read())
        for target in LINK_RE.findall(text):
            if target.startswith(SKIP_SCHEMES):
                continue
            resolved, _, fragment = target.partition("#")
            if not resolved and not fragment:
                continue
            if resolved:
                base = (REPO if resolved.startswith("/")
                        else os.path.dirname(path))
                full = os.path.normpath(
                    os.path.join(base, resolved.lstrip("/")))
                if not full.startswith(REPO + os.sep) and full != REPO:
                    # Escapes the repo (GitHub's ../../actions badge
                    # idiom): a URL path on github.com, not a checkable
                    # file.
                    continue
                if not os.path.exists(full):
                    errors.append(f"{md}: broken link -> {target}")
                    continue
            else:
                full = path  # in-page anchor
            # A fragment must name a real heading of the target markdown
            # file — links to renamed/deleted sections fail here.
            if fragment and full.endswith(".md"):
                if fragment.lower() not in heading_anchors(full):
                    errors.append(
                        f"{md}: broken anchor -> {target} "
                        f"(no such heading)")
    return errors


DECL_RE = re.compile(r"^(?:class|struct)\s+(\w+)\s*(?::[^;]*)?\{")


def check_obs_headers():
    errors = []
    for header in tracked_files(".h"):
        if not header.startswith(
                ("src/obs/", "src/exec/", "src/algebra/", "src/expr/",
                 "src/diff/", "src/serve/", "src/persist/")):
            continue
        with open(os.path.join(REPO, header), encoding="utf-8") as f:
            lines = f.read().splitlines()
        if not lines or not lines[0].lstrip().startswith("//"):
            errors.append(f"{header}: missing file-top doc comment")
        for i, line in enumerate(lines):
            match = DECL_RE.match(line.strip())
            if not match:
                continue
            if line.startswith((" ", "\t")):
                continue  # nested type: the enclosing type carries the doc
            prev = lines[i - 1].strip() if i > 0 else ""
            if not prev.startswith("//"):
                errors.append(
                    f"{header}:{i + 1}: {match.group(1)} lacks a doc "
                    "comment on the preceding line")
    return errors


def check_architecture_map():
    """Every src/<subsystem> with tracked sources appears in the map."""
    arch = os.path.join(REPO, "docs", "ARCHITECTURE.md")
    if not os.path.exists(arch):
        return ["docs/ARCHITECTURE.md: missing (the subsystem map)"]
    with open(arch, encoding="utf-8") as f:
        text = f.read()
    subsystems = set()
    for tracked in tracked_files(".cc") + tracked_files(".h"):
        parts = tracked.split("/")
        if len(parts) >= 3 and parts[0] == "src":
            subsystems.add(parts[1])
    return [
        f"docs/ARCHITECTURE.md: src/{sub} is not on the subsystem map"
        for sub in sorted(subsystems) if f"src/{sub}" not in text
    ]


def check_line_width():
    """Every tracked C++ source line fits .clang-format's ColumnLimit."""
    with open(os.path.join(REPO, ".clang-format"), encoding="utf-8") as f:
        match = re.search(r"^ColumnLimit:\s*(\d+)", f.read(), re.MULTILINE)
    limit = int(match.group(1)) if match else 80
    errors = []
    for source in tracked_files(".h") + tracked_files(".cc"):
        with open(os.path.join(REPO, source), encoding="utf-8") as f:
            for number, line in enumerate(f.read().splitlines(), 1):
                if len(line) > limit:
                    errors.append(f"{source}:{number}: {len(line)} columns "
                                  f"(limit {limit})")
    return errors


def main():
    errors = (check_links() + check_obs_headers() +
              check_architecture_map() + check_line_width())
    for error in errors:
        print(error, file=sys.stderr)
    if errors:
        print(f"\ndocs-check: {len(errors)} problem(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
