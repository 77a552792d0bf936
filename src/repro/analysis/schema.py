"""W-series: the wire-frame / schema-constant fingerprint golden.

Every wire frame this codebase sends is built as a dict literal with a
constant ``"type"`` key, inside a backends module.  That makes the
protocol's *shape* statically extractable: this pass collects, per
frame type, the union of field names across every send site (including
``frame["field"] = ...`` augmentations of a literal bound earlier in
the same function), plus every module-level ``*_VERSION`` constant, and
fingerprints them into ``tests/golden/frame_schema.txt``.

The rule then enforces the versioning contract the wire module states
in prose: *"Version-bump rule: changing the meaning or the shape of
what travels inside frames is a protocol change."*  Concretely:

* frame fields changed while ``PROTOCOL_VERSION`` stayed the same ->
  ``W-frame-schema`` names the frame and demands a bump;
* fields changed *with* a bump (or a schema constant changed) but the
  golden was not regenerated -> ``W-frame-schema`` says the golden is
  stale and to rerun with ``--write``.

The check only engages when the linted paths contain frame-bearing
modules (path contains a ``backends`` directory) or version constants,
so linting an arbitrary fixture tree does not demand a golden.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from .engine import Violation

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .engine import FileContext

_HEADER = (
    "# Wire-frame field sets and schema constants (repro lint W-series).\n"
    "# Regenerate after a deliberate, version-bumped protocol change:\n"
    "#   PYTHONPATH=src python -m repro lint src/ --write\n"
)


def _const_str(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _frame_fields(node: ast.Dict) -> Optional[Tuple[str, Set[str]]]:
    """``(frame_type, field names)`` for a typed frame literal."""
    fields: Set[str] = set()
    frame_type: Optional[str] = None
    for key, value in zip(node.keys, node.values):
        name = _const_str(key) if key is not None else None
        if name is None:
            return None  # computed or **-spliced keys: not a wire literal
        fields.add(name)
        if name == "type":
            frame_type = _const_str(value)
    if frame_type is None:
        return None
    return frame_type, fields


class _FrameWalk(ast.NodeVisitor):
    """Collect typed frame literals plus same-scope subscript
    augmentations (``frame = {"type": ...}; frame["x"] = ...``)."""

    def __init__(self, path: str) -> None:
        self.path = path
        #: frame type -> (fields, first-seen file, line).
        self.frames: Dict[str, Tuple[Set[str], str, int]] = {}
        self._bound: Dict[str, str] = {}  # var name -> frame type

    def _note(self, frame_type: str, fields: Set[str], line: int) -> None:
        if frame_type in self.frames:
            known, path, first = self.frames[frame_type]
            self.frames[frame_type] = (known | fields, path, first)
        else:
            self.frames[frame_type] = (set(fields), self.path, line)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        previous = self._bound
        self._bound = {}
        self.generic_visit(node)
        self._bound = previous

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Dict(self, node: ast.Dict) -> None:
        typed = _frame_fields(node)
        if typed is not None:
            self._note(typed[0], typed[1], node.lineno)
        self.generic_visit(node)

    def _bind(self, target: ast.expr, value: Optional[ast.expr],
              line: int) -> None:
        if (isinstance(target, ast.Name) and isinstance(value, ast.Dict)):
            typed = _frame_fields(value)
            if typed is not None:
                self._bound[target.id] = typed[0]
        if (isinstance(target, ast.Subscript)
                and isinstance(target.value, ast.Name)
                and target.value.id in self._bound):
            field = _const_str(target.slice)
            if field is not None:
                self._note(self._bound[target.value.id], {field}, line)

    def visit_Assign(self, node: ast.Assign) -> None:
        if len(node.targets) == 1:
            self._bind(node.targets[0], node.value, node.lineno)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        # ``frame: Dict[str, Any] = {...}`` -- how _job_frame binds.
        self._bind(node.target, node.value, node.lineno)
        self.generic_visit(node)


def collect_frames(
    contexts: List["FileContext"],
) -> Dict[str, Tuple[Set[str], str, int]]:
    """Frame type -> (field union, first-seen file, line), from every
    linted module under a ``backends`` directory."""
    frames: Dict[str, Tuple[Set[str], str, int]] = {}
    for context in contexts:
        if "backends" not in context.abspath.parts:
            continue
        walk = _FrameWalk(context.path)
        walk.visit(context.tree)
        for frame_type, (fields, path, line) in walk.frames.items():
            if frame_type in frames:
                known, first_path, first_line = frames[frame_type]
                frames[frame_type] = (known | fields, first_path, first_line)
            else:
                frames[frame_type] = (fields, path, line)
    return frames


def collect_versions(
    contexts: List["FileContext"],
) -> Dict[str, Tuple[int, str, int]]:
    """``*_VERSION`` module constants -> (value, file, line)."""
    versions: Dict[str, Tuple[int, str, int]] = {}
    for context in contexts:
        for node in context.tree.body:
            if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
                continue
            target = node.targets[0]
            if not (isinstance(target, ast.Name)
                    and target.id.endswith("_VERSION")
                    and target.id.upper() == target.id):
                continue
            if (isinstance(node.value, ast.Constant)
                    and isinstance(node.value.value, int)):
                versions[target.id] = (
                    node.value.value, context.path, node.lineno,
                )
    return versions


def render_fingerprint(frames: Dict[str, Tuple[Set[str], str, int]],
                       versions: Dict[str, Tuple[int, str, int]]) -> str:
    lines = [_HEADER.rstrip("\n")]
    for name in sorted(versions):
        lines.append(f"{name} = {versions[name][0]}")
    for frame_type in sorted(frames):
        fields = ", ".join(sorted(frames[frame_type][0]))
        lines.append(f"frame {frame_type}: {fields}")
    return "\n".join(lines) + "\n"


def parse_fingerprint(
    text: str,
) -> Tuple[Dict[str, int], Dict[str, Set[str]]]:
    versions: Dict[str, int] = {}
    frames: Dict[str, Set[str]] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("frame "):
            head, _, rest = line[len("frame "):].partition(":")
            frames[head.strip()] = {
                field.strip() for field in rest.split(",") if field.strip()
            }
        elif " = " in line:
            name, _, value = line.partition(" = ")
            versions[name.strip()] = int(value)
    return versions, frames


def check(contexts: List["FileContext"], *, golden: Path,
          write: bool = False) -> List[Violation]:
    frames = collect_frames(contexts)
    versions = collect_versions(contexts)
    if not frames and not versions:
        return []  # nothing wire-shaped in the linted paths

    current = render_fingerprint(frames, versions)
    if write:
        golden.parent.mkdir(parents=True, exist_ok=True)
        golden.write_text(current, encoding="utf-8")
        return []

    if not golden.exists():
        return [Violation(
            "W-frame-schema", str(golden), 1,
            "frame-schema golden missing; generate it with "
            "`python -m repro lint src/ --write`",
        )]
    old_versions, old_frames = parse_fingerprint(
        golden.read_text(encoding="utf-8")
    )

    violations: List[Violation] = []
    bumped = versions.get("PROTOCOL_VERSION", (None,))[0] != \
        old_versions.get("PROTOCOL_VERSION")
    for frame_type in sorted(set(frames) | set(old_frames)):
        new_fields = frames.get(frame_type, (set(),))[0]
        old_fields = old_frames.get(frame_type, set())
        if new_fields == old_fields:
            continue
        if frame_type in frames:
            _, path, line = frames[frame_type]
        else:
            path, line = str(golden), 1
        if bumped:
            violations.append(Violation(
                "W-frame-schema", path, line,
                f"frame '{frame_type}' fields changed and "
                "PROTOCOL_VERSION was bumped; refresh the golden with "
                "`python -m repro lint src/ --write`",
            ))
        else:
            added = sorted(new_fields - old_fields)
            removed = sorted(old_fields - new_fields)
            delta = "".join(
                [f" added {added}" if added else "",
                 f" removed {removed}" if removed else ""]
            )
            violations.append(Violation(
                "W-frame-schema", path, line,
                f"frame '{frame_type}' field set changed{delta} without "
                "a PROTOCOL_VERSION bump; old drivers/workers would "
                "misread it silently",
            ))
    if not violations:
        for name in sorted(set(versions) | set(old_versions)):
            new = versions.get(name, (None, str(golden), 1))
            if new[0] != old_versions.get(name):
                violations.append(Violation(
                    "W-frame-schema", new[1], new[2],
                    f"{name} changed ({old_versions.get(name)} -> "
                    f"{new[0]}) but the golden was not regenerated; "
                    "rerun with --write",
                ))
    return violations
