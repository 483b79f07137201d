#!/usr/bin/env python3
"""Print the net ``src/`` line delta between a git revision and the work tree.

    python tools/src_delta.py            # against HEAD
    python tools/src_delta.py main~3     # against any revision

Counts the lines of every ``src/`` file at the revision and in the work
tree (tracked and untracked files, ignored ones excluded) and prints
both totals and their difference.  A negative delta means the change
shrank the package.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parents[1]


def src_lines(rev: str | None) -> int:
    """Total lines under ``src/`` at ``rev`` (``None``: the work tree)."""
    where = [rev] if rev else ["--untracked"]
    out = subprocess.run(
        ["git", "grep", "--count", "-e", "", *where, "--", "src"],
        cwd=_REPO_ROOT, capture_output=True, text=True, check=True,
    ).stdout
    return sum(int(line.rsplit(":", 1)[1]) for line in out.splitlines())


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    base = args[0] if args else "HEAD"
    before, after = src_lines(base), src_lines(None)
    print(f"src/ lines: {before} at {base}, {after} in the work tree "
          f"({after - before:+d})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
