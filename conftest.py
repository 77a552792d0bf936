"""Session guard: a test session leaves the tracked files as it found them.

A test that rewrites a committed file turns every run into a diff, and
the next commit ships whatever the last run wrote.  At session start the
guard records ``git status --porcelain`` and ``git diff``; at session end
it fails the session, naming the paths, if either changed.  Only tracked
files count: whoever runs the suite may drop logs and reports of its own
into the tree.  Outside a git work tree the guard does nothing.
"""

from __future__ import annotations

import subprocess
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

import pytest

ROOT = Path(__file__).resolve().parent

#: Per-path status lines and diff chunks at session start.
Tree = Tuple[Dict[str, str], Dict[str, str]]
_START = pytest.StashKey[Optional[Tree]]()
#: Paths whose status or diff changed by session end.
_CHANGED = pytest.StashKey[List[str]]()


def _git(*args: str) -> Optional[str]:
    """Stdout of ``git ARGS`` in the repo root; None when git is missing
    or the command fails (as it does outside a work tree)."""
    try:
        proc = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True,
            timeout=60,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout if proc.returncode == 0 else None


def _tree() -> Optional[Tree]:
    """Per-path ``git status --porcelain`` lines and ``git diff`` chunks
    of the tracked files, or None outside a git work tree."""
    status = _git("status", "--porcelain", "--untracked-files=no")
    diff = _git("diff", "--no-color", "--no-ext-diff")
    if status is None or diff is None:
        return None
    lines = {line[3:]: line for line in status.splitlines()}
    chunks: Dict[str, str] = {}
    path = ""
    for line in diff.splitlines(keepends=True):
        if line.startswith("diff --git "):
            path = line.rstrip("\n").rsplit(" b/", 1)[-1]
        chunks[path] = chunks.get(path, "") + line
    return lines, chunks


def _changed(before: Dict[str, str], after: Dict[str, str]) -> Set[str]:
    return {path for path in before.keys() | after.keys()
            if before.get(path) != after.get(path)}


def pytest_sessionstart(session: pytest.Session) -> None:
    session.config.stash[_START] = _tree()


def pytest_sessionfinish(session: pytest.Session) -> None:
    before, after = session.config.stash.get(_START, None), _tree()
    if before is None or after is None:
        return
    changed = sorted(_changed(before[0], after[0])
                     | _changed(before[1], after[1]))
    if changed:
        session.config.stash[_CHANGED] = changed
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter, config: pytest.Config) -> None:
    changed = config.stash.get(_CHANGED, [])
    if changed:
        terminalreporter.section(
            "session failed: tracked files changed by this session", red=True
        )
        for path in changed:
            terminalreporter.write_line(path)
