"""The ``repro lint`` engine: per-rule fixture pairs, pragma escapes,
output stability, the frame-schema golden gate, and the self-run.

Every rule gets a passing and a failing snippet; the shipped tree
itself must lint clean (that *is* the point of the subsystem), and any
seeded violation must come back as a ``RULE file:line message``
diagnostic with a nonzero exit.
"""

import json
import re
import textwrap
from pathlib import Path

import pytest

from repro.experiments.cli import main
from repro.analysis.engine import (
    Violation,
    discover,
    render_json,
    render_text,
    run_lint,
)

REPO = Path(__file__).resolve().parents[1]


def lint_snippet(tmp_path, source, name="snippet.py", **kwargs):
    """Write one module and lint it; returns the violations."""
    target = tmp_path / name
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(source), encoding="utf-8")
    return run_lint([str(tmp_path)], **kwargs)


def rules_of(violations):
    return sorted({violation.rule for violation in violations})


class TestDeterminismRules:
    def test_wallclock_flagged_monotonic_clean(self, tmp_path):
        dirty = lint_snippet(tmp_path, """
            import time

            def elapsed(start):
                return time.time() - start
        """)
        assert rules_of(dirty) == ["D-wallclock"]
        assert dirty[0].line == 5
        clean = lint_snippet(tmp_path, """
            import time

            def elapsed(start):
                return time.monotonic() - start
        """)
        assert clean == []

    def test_global_random_flagged_seeded_and_jitter_clean(self, tmp_path):
        dirty = lint_snippet(tmp_path, """
            import random

            def pick(items):
                return random.choice(items)
        """)
        assert rules_of(dirty) == ["D-random"]
        clean = lint_snippet(tmp_path, """
            import random

            def pick(items, seed):
                return random.Random(seed).choice(items)

            def _jittered(delay):
                return delay * random.uniform(0.75, 1.25)
        """)
        assert clean == []

    def test_set_iteration_and_unsorted_dumps_flagged(self, tmp_path):
        dirty = lint_snippet(tmp_path, """
            import json

            def rows(items):
                out = [item for item in {1, 2, 3}]
                for item in set(items):
                    out.append(item)
                first = next(iter({"a", "b"}))
                return json.dumps(out), first
        """)
        assert rules_of(dirty) == ["D-iterorder"]
        assert len(dirty) == 4  # comprehension, for, iter(), dumps
        clean = lint_snippet(tmp_path, """
            import json

            def rows(items):
                out = [item for item in sorted({1, 2, 3})]
                for item in sorted(set(items)):
                    out.append(item)
                return json.dumps(out, sort_keys=True)
        """)
        assert clean == []


class TestExceptionRules:
    def test_bare_except_flagged(self, tmp_path):
        dirty = lint_snippet(tmp_path, """
            def swallow(fn):
                try:
                    fn()
                except:
                    pass
        """)
        assert rules_of(dirty) == ["E-bare"]

    def test_silent_broad_except_flagged_typed_clean(self, tmp_path):
        dirty = lint_snippet(tmp_path, """
            def swallow(fn):
                try:
                    fn()
                except Exception:
                    pass
        """)
        assert rules_of(dirty) == ["E-silent"]
        clean = lint_snippet(tmp_path, """
            def swallow(fn, log):
                try:
                    fn()
                except OSError:
                    pass  # close-path race: typed narrow swallow is fine
                try:
                    fn()
                except Exception as exc:
                    log(exc)
        """)
        assert clean == []


class TestConcurrencyRules:
    def test_lock_order_cycle_flagged(self, tmp_path):
        dirty = lint_snippet(tmp_path, """
            import threading

            class Pipeline:
                def __init__(self):
                    self._a_lock = threading.Lock()
                    self._b_lock = threading.Lock()
                    threading.Thread(target=self._drain).start()

                def fill(self):
                    with self._a_lock:
                        with self._b_lock:
                            pass

                def _drain(self):
                    with self._b_lock:
                        with self._a_lock:
                            pass
        """)
        assert rules_of(dirty) == ["C-lockorder"]
        assert "Pipeline._a_lock" in dirty[0].message
        clean = lint_snippet(tmp_path, """
            import threading

            class Pipeline:
                def __init__(self):
                    self._a_lock = threading.Lock()
                    self._b_lock = threading.Lock()
                    threading.Thread(target=self._drain).start()

                def fill(self):
                    with self._a_lock:
                        with self._b_lock:
                            pass

                def _drain(self):
                    with self._a_lock:
                        with self._b_lock:
                            pass
        """)
        assert clean == []

    def test_unlocked_shared_write_flagged_locked_clean(self, tmp_path):
        dirty = lint_snippet(tmp_path, """
            import threading

            class Counter:
                def __init__(self):
                    self.count = 0
                    threading.Thread(target=self._run).start()

                def _run(self):
                    self.count += 1

                def bump(self):
                    self.count += 1
        """)
        assert rules_of(dirty) == ["C-unlocked-write"]
        assert "Counter.count" in dirty[0].message
        clean = lint_snippet(tmp_path, """
            import threading

            class Counter:
                def __init__(self):
                    self.count = 0
                    self._lock = threading.Lock()
                    threading.Thread(target=self._run).start()

                def _run(self):
                    with self._lock:
                        self.count += 1

                def bump(self):
                    with self._lock:
                        self.count += 1
        """)
        assert clean == []


FRAME_MODULE = """
    PROTOCOL_VERSION = {version}

    def hello_frame(pid):
        return {{"type": "hello", "protocol": PROTOCOL_VERSION,
                 "pid": pid{extra}}}
"""


class TestFrameSchemaGolden:
    def write_module(self, tmp_path, version=1, extra=""):
        target = tmp_path / "backends" / "proto.py"
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(
            textwrap.dedent(FRAME_MODULE.format(version=version,
                                                extra=extra)),
            encoding="utf-8",
        )

    def test_write_then_clean_then_gate(self, tmp_path):
        golden = tmp_path / "frame_schema.txt"
        self.write_module(tmp_path)
        missing = run_lint([str(tmp_path)], golden=golden)
        assert rules_of(missing) == ["W-frame-schema"]
        assert "missing" in missing[0].message

        assert run_lint([str(tmp_path)], golden=golden, write=True) == []
        assert "frame hello: pid, protocol, type" in golden.read_text()
        assert run_lint([str(tmp_path)], golden=golden) == []

        # Field added without a PROTOCOL_VERSION bump: the gate.
        self.write_module(tmp_path, extra=", \"shard\": None")
        gated = run_lint([str(tmp_path)], golden=golden)
        assert rules_of(gated) == ["W-frame-schema"]
        assert "without a PROTOCOL_VERSION bump" in gated[0].message
        assert "shard" in gated[0].message

        # Same change *with* the bump: demands a golden refresh instead.
        self.write_module(tmp_path, version=2, extra=", \"shard\": None")
        stale = run_lint([str(tmp_path)], golden=golden)
        assert rules_of(stale) == ["W-frame-schema"]
        assert "--write" in stale[0].message
        assert run_lint([str(tmp_path)], golden=golden, write=True) == []
        assert run_lint([str(tmp_path)], golden=golden) == []

    def test_version_constant_drift_alone_is_stale_golden(self, tmp_path):
        golden = tmp_path / "frame_schema.txt"
        self.write_module(tmp_path, version=1)
        run_lint([str(tmp_path)], golden=golden, write=True)
        self.write_module(tmp_path, version=2)
        stale = run_lint([str(tmp_path)], golden=golden)
        assert rules_of(stale) == ["W-frame-schema"]
        assert "PROTOCOL_VERSION" in stale[0].message

    def test_shipped_golden_matches_shipped_tree(self):
        assert run_lint([str(REPO / "src")],
                        golden=REPO / "tests/golden/frame_schema.txt") == []


class TestPragmas:
    def test_same_line_and_line_above_and_comma_list(self, tmp_path):
        clean = lint_snippet(tmp_path, """
            import time

            def stamp():
                return time.time()  # repro: allow[D-wallclock]

            def stamp2():
                # repro: allow[D-wallclock, E-bare]
                return time.time()
        """)
        assert clean == []

    def test_pragma_is_rule_specific(self, tmp_path):
        dirty = lint_snippet(tmp_path, """
            import time

            def stamp():
                return time.time()  # repro: allow[D-random]
        """)
        assert rules_of(dirty) == ["D-wallclock"]


class TestEngineSurface:
    def test_select_filters_by_rule_and_family(self, tmp_path):
        violations = lint_snippet(tmp_path, """
            import time

            def bad(fn):
                try:
                    fn()
                except:
                    pass
                return time.time()
        """, select=["E-bare"])
        assert rules_of(violations) == ["E-bare"]
        violations = run_lint([str(tmp_path)], select=["D"])
        assert rules_of(violations) == ["D-wallclock"]

    def test_unparseable_file_is_a_parse_violation(self, tmp_path):
        violations = lint_snippet(tmp_path, "def broken(:\n")
        assert rules_of(violations) == ["parse"]

    def test_discover_rejects_missing_path(self):
        with pytest.raises(FileNotFoundError):
            discover(["no/such/path"])

    def test_json_output_is_stable_and_sorted(self, tmp_path):
        (tmp_path / "b.py").write_text("import time\nt = time.time()\n")
        (tmp_path / "a.py").write_text(
            "def f(x):\n"
            "    try:\n"
            "        x()\n"
            "    except:\n"
            "        pass\n"
        )
        first = run_lint([str(tmp_path)])
        second = run_lint([str(tmp_path)])
        assert first == second
        paths = [violation.path for violation in first]
        assert paths == sorted(paths)
        blob = render_json(first, files=2)
        assert json.loads(blob)["clean"] is False
        assert blob == render_json(second, files=2)

    def test_text_rendering_is_rule_file_line_message(self):
        violation = Violation("D-wallclock", "src/x.py", 12, "msg here")
        assert violation.render() == "D-wallclock src/x.py:12 msg here"
        assert "repro lint: clean (3 files)" in render_text([], 3)


class TestCli:
    def test_self_run_on_shipped_tree_is_clean(self, capsys):
        assert main(["lint", str(REPO / "src")]) == 0
        assert "clean" in capsys.readouterr().out

    def test_seeded_violation_fails_with_diagnostic(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import time\nSTART = time.time()\n")
        assert main(["lint", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert re.search(r"D-wallclock \S+bad\.py:2 ", out)

    def test_json_format_and_select(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import time\nSTART = time.time()\n")
        assert main(["lint", str(tmp_path), "--format", "json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["clean"] is False
        assert doc["violations"][0]["rule"] == "D-wallclock"
        assert main(["lint", str(tmp_path), "--select", "E"]) == 0

    def test_unknown_select_and_missing_path_are_usage_errors(
            self, tmp_path, capsys):
        assert main(["lint", str(tmp_path), "--select", "Z-bogus"]) == 2
        assert "unknown rule" in capsys.readouterr().err
        assert main(["lint", str(tmp_path / "nope")]) == 2
        assert "does not exist" in capsys.readouterr().err


class TestVersionCommand:
    def test_version_prints_every_constant(self, capsys):
        from repro.api import API_VERSION
        from repro.obs.spans import TELEMETRY_SCHEMA_VERSION
        from repro.runtime.backends.wire import PROTOCOL_VERSION
        from repro.runtime.execute import SCHEMA_VERSION

        assert main(["version"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert sorted(doc) == [
            "API_VERSION", "PROTOCOL_VERSION", "SCHEMA_VERSION",
            "TELEMETRY_SCHEMA_VERSION",
        ]
        assert doc["API_VERSION"] == API_VERSION
        assert doc["PROTOCOL_VERSION"] == PROTOCOL_VERSION
        assert doc["SCHEMA_VERSION"] == SCHEMA_VERSION
        assert doc["TELEMETRY_SCHEMA_VERSION"] == TELEMETRY_SCHEMA_VERSION

    def test_version_agrees_with_the_golden(self, capsys):
        """``repro version`` and the W-series golden can never drift:
        both are derived from the same module constants."""
        main(["version"])
        doc = json.loads(capsys.readouterr().out)
        golden = (REPO / "tests/golden/frame_schema.txt").read_text()
        for name, value in doc.items():
            assert f"{name} = {value}" in golden
