"""Tests for the store-fed reporting subsystem (:mod:`repro.reporting`)."""

import random
from pathlib import Path

import pytest

from repro.experiments.cli import main
from repro.lowerbounds.rounds import hiding_predictions
from repro.predictions.generators import corrupt_hiding, generate
from repro.predictions.model import count_errors
from repro.reporting import (
    RowQuery,
    build_report,
    paper_report_spec,
    render_html,
    render_markdown,
    write_report,
)
from repro.runtime import CampaignRunner, ResultStore, WorkerServer

GOLDEN = Path(__file__).parent / "golden" / "EXPERIMENTS_small.md"


class TestHidingGenerator:
    N, FAULTY = 10, [0, 1, 2]

    def _honest(self):
        return [pid for pid in range(self.N) if pid not in set(self.FAULTY)]

    @pytest.mark.parametrize("budget", [1, 7, 10, 21, 25, 70])
    def test_exact_budget(self, budget):
        honest = self._honest()
        assignment = corrupt_hiding(self.N, honest, budget, random.Random(0))
        assert count_errors(assignment, honest).total == budget

    def test_matches_lowerbound_construction(self):
        # A budget of k * (n - f) hides the k lowest faulty ids, exactly
        # like the Theorem 13 proof construction.
        honest = self._honest()
        budget = 2 * len(honest)
        assignment = corrupt_hiding(self.N, honest, budget, random.Random(0))
        expected, burned = hiding_predictions(self.N, honest, [0, 1])
        assert burned == budget
        for holder in honest:
            assert assignment[holder] == expected[holder]

    def test_registered_and_dispatchable(self):
        honest = self._honest()
        assignment = generate("hiding", self.N, honest, 14, random.Random(0))
        assert count_errors(assignment, honest).total == 14

    def test_budget_over_capacity_raises(self):
        with pytest.raises(ValueError, match="outside 0..8"):
            corrupt_hiding(4, [0, 1], 100, random.Random(0))


ROWS = [
    {"n": 7, "mode": "unauthenticated", "rounds": 5, "agreed": True},
    {"n": 7, "mode": "authenticated", "rounds": 9, "agreed": True},
    {"n": 13, "mode": "unauthenticated", "rounds": 7, "agreed": False},
]


class TestRowQuery:
    def test_filter(self):
        assert len(RowQuery(ROWS).filter(n=7)) == 2
        assert len(RowQuery(ROWS).filter(n=7, mode="authenticated")) == 1

    def test_where(self):
        assert len(RowQuery(ROWS).where(lambda r: r["rounds"] > 5)) == 2

    def test_sort_by_and_column(self):
        q = RowQuery(ROWS).sort_by("rounds", reverse=True)
        assert q.column("rounds") == [9, 7, 5]

    def test_sort_by_missing_field_sorts_first(self):
        rows = [{"x": 1}, {}, {"x": 0}]
        assert RowQuery(rows).sort_by("x").column("x") == [None, 0, 1]

    def test_group_by(self):
        groups = RowQuery(ROWS).group_by("n")
        assert set(groups) == {(7,), (13,)}
        assert len(groups[(7,)]) == 2

    def test_distinct_select_first(self):
        q = RowQuery(ROWS)
        assert q.distinct("n") == [7, 13]
        assert q.select("n")[0] == {"n": 7}
        assert q.first() is not ROWS or q.first() == ROWS[0]

    def test_summarize_delegates(self):
        summary = RowQuery(ROWS).summarize(by=("n",), metrics=("rounds",))
        assert summary[0]["count"] == 2

    def test_from_store_hash_order(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        store.put("bb", {"v": 2})
        store.put("aa", {"v": 1})
        assert RowQuery.from_store(store).column("v") == [1, 2]
        assert store.rows() == [{"v": 1}, {"v": 2}]
        assert store.items() == [("aa", {"v": 1}), ("bb", {"v": 2})]
        # Every view is hash-ordered, independent of append order.
        assert list(iter(store)) == store.keys() == ["aa", "bb"]


class TestPaperReport:
    def test_unknown_scale(self):
        with pytest.raises(ValueError, match="unknown scale"):
            paper_report_spec("galactic")

    def test_golden_small_scale(self):
        # The committed golden file pins byte-level determinism of the
        # whole pipeline: scenario hashing, derived seeds, execution, and
        # rendering.  Regenerate with:
        #   PYTHONPATH=src python -c "from repro.reporting import *; \
        #     print(render_markdown(build_report(paper_report_spec('small'))), end='')" \
        #     > tests/golden/EXPERIMENTS_small.md
        report = build_report(paper_report_spec("small"))
        assert render_markdown(report) == GOLDEN.read_text(encoding="utf-8")

    def test_all_claims_pass_on_small_scale(self):
        report = build_report(paper_report_spec("small"))
        assert report.passed
        assert {claim.claim_id for claim, _ in report.claims} == {
            "T11-agreement", "T11-degradation", "T13-round-lb",
            "T14-message-lb", "ENV-wrapper-cap",
        }

    def test_warm_store_serves_without_execution(self, tmp_path):
        spec = paper_report_spec("small")
        store = ResultStore(tmp_path / "report.jsonl")
        runner = CampaignRunner(store=store)
        assert len(runner.pending(spec.scenarios())) == 6  # deduplicated
        cold = build_report(spec, store=store)
        assert cold.stats.executed > 0
        assert runner.pending(spec.scenarios()) == []
        warm = build_report(spec, store=store)
        assert warm.stats.executed == 0
        assert warm.stats.cached == cold.stats.executed
        assert render_markdown(warm) == render_markdown(cold)

    def test_doctored_row_flips_claim_to_fail(self, tmp_path):
        spec = paper_report_spec("small")
        store = ResultStore(tmp_path / "report.jsonl")
        build_report(spec, store=store)
        # Doctor the all-hidden f=4 row (lb=5) below its Theorem 13 bound.
        victim = next(
            scenario for scenario in spec.tables[1].scenarios
            if scenario.f == 4 and scenario.budget > 0
        )
        key = victim.scenario_hash()
        row = dict(store.get(key))
        assert row["lb_rounds"] > 1
        row["rounds"] = 1
        store.put(key, row)
        doctored = build_report(spec, store=store)
        verdicts = {claim.claim_id: result for claim, result in doctored.claims}
        assert not verdicts["T13-round-lb"].passed
        assert not doctored.passed
        # The doctored scenario is shared with the t11 table (content-hash
        # dedup), so the degradation claim flips too; nothing else does.
        assert set(doctored.failed_claims()) == {
            "T11-degradation", "T13-round-lb",
        }

    def test_render_html(self):
        report = build_report(paper_report_spec("small"))
        text = render_html(report)
        assert "<table>" in text and "T13-round-lb" in text
        assert "PASS" in text

    def test_write_report_artifacts(self, tmp_path):
        report = build_report(paper_report_spec("small"))
        written = write_report(report, tmp_path / "out")
        names = {path.relative_to(tmp_path / "out").as_posix() for path in written}
        assert "EXPERIMENTS.md" in names
        assert "tables/t11.md" in names and "tables/t14.md" in names
        assert "figures/t11_rounds_vs_b.txt" in names
        for path in written:
            assert path.exists() and path.stat().st_size > 0

    def test_write_report_unknown_format(self, tmp_path):
        report = build_report(paper_report_spec("small"))
        with pytest.raises(ValueError, match="unknown report format"):
            write_report(report, tmp_path, fmt="pdf")


class TestReportCLI:
    def test_report_roundtrip_zero_executions(self, tmp_path, capsys):
        args = [
            "report", "--scale", "small",
            "--store", str(tmp_path / "store.jsonl"),
            "--out", str(tmp_path / "out"),
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "executed 6" in first
        assert main(args) == 0
        second = capsys.readouterr().out
        assert "executed 0" in second
        assert (tmp_path / "out" / "EXPERIMENTS.md").exists()

    def test_report_over_socket_workers_matches_serial(self, tmp_path,
                                                      capsys):
        servers = [WorkerServer(), WorkerServer()]
        for server in servers:
            server.start()
        try:
            assert main([
                "report", "--scale", "small", "--backend", "socket",
                "--connect", ",".join(server.address for server in servers),
                "--store", str(tmp_path / "socket.jsonl"),
                "--out", str(tmp_path / "socket"),
            ]) == 0
        finally:
            for server in servers:
                server.stop()
        assert "executed 6" in capsys.readouterr().out
        assert main([
            "report", "--scale", "small",
            "--store", str(tmp_path / "serial.jsonl"),
            "--out", str(tmp_path / "serial"),
        ]) == 0
        socket_doc = tmp_path / "socket" / "EXPERIMENTS.md"
        serial_doc = tmp_path / "serial" / "EXPERIMENTS.md"
        assert socket_doc.read_bytes() == serial_doc.read_bytes()

    def test_report_html_out(self, tmp_path, capsys):
        assert main([
            "report", "--scale", "small", "--format", "html",
            "--store", str(tmp_path / "store.jsonl"),
            "--out", str(tmp_path / "out"),
        ]) == 0
        assert (tmp_path / "out" / "EXPERIMENTS.html").exists()


def test_hiding_generator_rejects_negative_budget():
    with pytest.raises(ValueError, match="outside"):
        corrupt_hiding(10, range(3, 10), -5, random.Random(0))
