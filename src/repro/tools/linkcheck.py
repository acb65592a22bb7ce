"""Markdown link and code-reference checker for the repo's documentation.

Validates every ``[text](target)`` link in README.md, EXPERIMENTS.md,
DESIGN.md, ``docs/*.md`` and the verify skill:

* **relative paths** must exist on disk (anchors checked too when the
  target is a markdown file);
* **intra-document anchors** (``#section``) must match a heading in the
  same file, using GitHub's slug rules (lowercase, spaces to dashes,
  punctuation stripped);
* **external URLs** are *not* fetched — CI must not depend on the
  network — but must at least parse as http(s);
* **code references** — a backticked ``dir/file.py`` outside fenced
  blocks, with ``{a,b}`` alternatives expanded and an optional
  ``:name`` or ``::name`` — must name a file under the document's
  directory, the repo root, ``src/`` or ``src/repro/``, and every
  dotted part of ``name`` must be a def, class or assigned name in it;
* **source directories** — a backticked ``src/…/`` must exist;
* **CLI flags** — every ``--flag`` a document passes to ``python -m
  repro.<cli>``, in inline code or a fenced block and across
  backslash continuations, must appear in that CLI's ``--help``.

Usage::

    python -m repro.tools.linkcheck            # exit 1 on any broken link
"""

from __future__ import annotations

import argparse
import ast
import functools
import os
import pathlib
import re
import subprocess
import sys
from typing import List

REPO_ROOT = pathlib.Path(__file__).resolve().parents[3]

DOC_GLOBS = (
    "README.md",
    "EXPERIMENTS.md",
    "DESIGN.md",
    "docs/*.md",
    ".claude/skills/verify/SKILL.md",
)

# [text](target) — skips images' leading ! naturally (same syntax), and
# ignores fenced code blocks via pre-stripping.
_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_HEADING_RE = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)
_FENCE_RE = re.compile(r"```.*?```", re.DOTALL)
# `dir/file.py`, `dir/{a,b}.py`, `dir/file.py:name`, `file.py::Test::case`
_CODE_REF_RE = re.compile(
    r"`([\w.{},-]*/[\w./{},-]*\.py)(?:::?([\w.:\[\]-]+))?`"
)
_BRACES_RE = re.compile(r"\{([^{}]*)\}")
_DIR_REF_RE = re.compile(r"`(src/[\w./-]*/)`")
_INLINE_RE = re.compile(r"`([^`]+)`")
# `python -m repro.<cli>` and its arguments, up to the end of the command.
_CLI_RE = re.compile(r"python3? +-m +(repro(?:\.\w+)+)([^`\n;|&)#]*)")
_FLAG_RE = re.compile(r"(?<![\w-])--[a-z][\w-]*")


def github_slug(heading: str) -> str:
    """GitHub's anchor slug: lowercase, punctuation out, spaces to dashes."""
    heading = re.sub(r"`([^`]*)`", r"\1", heading.strip())
    heading = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", heading)  # links
    slug = heading.lower()
    slug = re.sub(r"[^\w\- ]", "", slug)
    return slug.replace(" ", "-")


def anchors_of(text: str) -> set:
    """Every heading anchor a document defines."""
    return {github_slug(match) for match in _HEADING_RE.findall(text)}


def doc_files() -> List[pathlib.Path]:
    """The markdown files the gate covers."""
    files: List[pathlib.Path] = []
    for pattern in DOC_GLOBS:
        files.extend(sorted(REPO_ROOT.glob(pattern)))
    return [f for f in files if f.is_file()]


def expand_braces(path: str) -> List[str]:
    """``a/{b,c}.py`` -> ``["a/b.py", "a/c.py"]`` (nested and repeated)."""
    match = _BRACES_RE.search(path)
    if match is None:
        return [path]
    head, tail = path[: match.start()], path[match.end() :]
    return [
        expanded
        for alternative in match.group(1).split(",")
        for expanded in expand_braces(head + alternative + tail)
    ]


def defined_names(source: str) -> set:
    """Every def, class and assigned name anywhere in a Python file."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
    return names


def check_code_refs(path: pathlib.Path, text: str) -> List[str]:
    """Stale ``dir/file.py[:name]`` and ``src/…/`` references in a text."""
    relative = path.relative_to(REPO_ROOT)
    src = REPO_ROOT / "src"
    roots = (path.parent, REPO_ROOT, src, src / "repro")
    problems = []
    for spec, name in _CODE_REF_RE.findall(text):
        for ref in expand_braces(spec):
            found = next(
                (root / ref for root in roots if (root / ref).is_file()), None
            )
            if found is None:
                problems.append(f"{relative}: no file {ref}")
                continue
            parts = [p for p in re.split(r"[.:]", name.split("[")[0]) if p]
            missing = sorted(set(parts) - defined_names(found.read_text()))
            if missing:
                problems.append(
                    f"{relative}: {ref} defines no {', '.join(missing)}"
                )
    for ref in _DIR_REF_RE.findall(text):
        if not (REPO_ROOT / ref).is_dir():
            problems.append(f"{relative}: no directory {ref}")
    return problems


@functools.lru_cache(maxsize=None)
def cli_flags(module: str) -> frozenset:
    """The ``--flags`` ``python -m <module> --help`` prints (empty: none)."""
    src = pathlib.Path(__file__).resolve().parents[2]
    result = subprocess.run(
        [sys.executable, "-m", module, "--help"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=120,
    )
    if result.returncode != 0:
        return frozenset()
    return frozenset(_FLAG_RE.findall(result.stdout))


def check_cli_flags(path: pathlib.Path, text: str) -> List[str]:
    """Flags a document passes to ``python -m repro.<cli>`` that it lacks."""
    relative = path.relative_to(REPO_ROOT)
    text = text.replace("\\\n", " ")
    commands = _FENCE_RE.findall(text) + [
        span.replace("\n", " ")
        for span in _INLINE_RE.findall(_FENCE_RE.sub("", text))
    ]
    problems = []
    for command in commands:
        for module, args in _CLI_RE.findall(command):
            known = cli_flags(module)
            if not known:
                problems.append(f"{relative}: python -m {module} has no --help")
                continue
            for flag in sorted(set(_FLAG_RE.findall(args)) - known):
                problems.append(f"{relative}: python -m {module} has no {flag}")
    return problems


def check_file(path: pathlib.Path) -> List[str]:
    """Broken-link descriptions for one markdown file."""
    raw = path.read_text()
    text = _FENCE_RE.sub("", raw)
    problems = []
    own_anchors = anchors_of(raw)
    for target in _LINK_RE.findall(text):
        relative = path.relative_to(REPO_ROOT)
        if target.startswith(("http://", "https://")):
            continue
        if target.startswith("mailto:"):
            continue
        if target.startswith("#"):
            if target[1:] not in own_anchors:
                problems.append(f"{relative}: missing anchor {target}")
            continue
        file_part, _, anchor = target.partition("#")
        dest = (path.parent / file_part).resolve()
        if not dest.exists():
            problems.append(f"{relative}: broken path {target}")
            continue
        if anchor and dest.suffix == ".md":
            if github_slug(anchor) not in anchors_of(dest.read_text()):
                problems.append(
                    f"{relative}: missing anchor #{anchor} in {file_part}"
                )
    return problems + check_code_refs(path, text) + check_cli_flags(path, raw)


def main(argv=None) -> int:
    """CLI body; returns the process exit status."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.linkcheck",
        description="Offline link and code-reference checker for repo docs.",
    )
    parser.parse_args(argv)
    files = doc_files()
    problems: List[str] = []
    for path in files:
        problems.extend(check_file(path))
    for problem in problems:
        print(f"BROKEN: {problem}", file=sys.stderr)
    print(
        f"checked {len(files)} file(s):"
        f" {'all links ok' if not problems else f'{len(problems)} broken'}"
    )
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
