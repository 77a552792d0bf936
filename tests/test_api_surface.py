"""Snapshot test pinning the public API surface.

``tests/golden/api_surface.txt`` records every name in
``repro.api.__all__`` with its public signatures.  An unintentional
signature change (or a silently vanished export) fails this test; an
intentional one regenerates the snapshot::

    PYTHONPATH=src python tests/test_api_surface.py --write

and bumps ``API_VERSION`` if the change is breaking.
"""

import inspect
import sys
from pathlib import Path

GOLDEN = Path(__file__).parent / "golden" / "api_surface.txt"


def _signature(obj) -> str:
    try:
        return str(inspect.signature(obj))
    except (TypeError, ValueError):
        return "(...)"


def _class_lines(name, cls):
    yield f"class {name}{_signature(cls)}"
    members = []
    for attr, value in sorted(vars(cls).items()):
        if attr.startswith("_"):
            continue
        if isinstance(value, property):
            members.append(f"  {attr}: property")
        elif isinstance(value, (classmethod, staticmethod)):
            members.append(f"  {attr}{_signature(value.__func__)}")
        elif callable(value):
            members.append(f"  {attr}{_signature(value)}")
    yield from members


def render_api_surface() -> str:
    """The current ``repro.api`` surface as stable text."""
    import repro.api as api

    lines = [
        "# repro.api public surface snapshot "
        f"(API_VERSION={api.API_VERSION})",
        "# Regenerate: PYTHONPATH=src python tests/test_api_surface.py "
        "--write",
        "",
    ]
    for name in sorted(api.__all__):
        obj = getattr(api, name)
        if inspect.isclass(obj):
            lines.extend(_class_lines(name, obj))
        elif callable(obj):
            lines.append(f"def {name}{_signature(obj)}")
        else:
            lines.append(f"{name} = {obj!r}")
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def test_api_surface_matches_snapshot():
    assert GOLDEN.exists(), (
        f"missing {GOLDEN}; generate it with: "
        "PYTHONPATH=src python tests/test_api_surface.py --write"
    )
    expected = GOLDEN.read_text()
    actual = render_api_surface()
    assert actual == expected, (
        "repro.api surface changed; review the diff and regenerate the "
        "snapshot (PYTHONPATH=src python tests/test_api_surface.py "
        "--write), bumping API_VERSION if the change is breaking"
    )


def test_all_exports_resolve():
    import repro.api as api

    for name in api.__all__:
        assert getattr(api, name, None) is not None, name


if __name__ == "__main__":
    if "--write" in sys.argv:
        GOLDEN.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN.write_text(render_api_surface())
        print(f"wrote {GOLDEN}")
    else:
        print(render_api_surface(), end="")
