"""Observability tests: span API, telemetry sink, instrumented campaigns.

The two load-bearing properties:

* telemetry is a **sidecar** -- result rows are byte-identical across
  serial/pool/socket backends with telemetry on or off;
* the sidecar is **complete** -- for a single-worker, window-1 socket
  campaign the recorded phases account for >= 95% of the campaign wall
  clock, so "where did the wall-clock go" has an answer.
"""

import io
import json
import logging
import os
import subprocess
import sys
import threading
import time

import pytest

from repro.api import Experiment
from repro.obs import (
    DISABLED,
    NULL_SPAN,
    Telemetry,
    TELEMETRY_SCHEMA_VERSION,
    activate,
    configure_logging,
    current,
    kv,
    load_telemetry,
)
from repro.obs import spans as spans_module
import repro.obs.stats as obs_stats
from repro.experiments.cli import main
from repro.runtime import (
    CampaignRunner,
    PoolBackend,
    ScenarioGrid,
    SerialBackend,
    SocketBackend,
    WorkerServer,
)

GRID_30 = ScenarioGrid(
    n=[5, 6, 7], budget=[0, 1, 2, 3, 4], adversary=["silent", "noise"]
)

GRID_SMALL = ScenarioGrid(n=[5, 6], budget=[0, 1], adversary=["silent"])


def rows_blob(rows):
    ordered = sorted(rows, key=lambda row: row["scenario"])
    return json.dumps(ordered, sort_keys=True).encode("utf-8")


@pytest.fixture
def worker():
    server = WorkerServer()
    server.start()
    yield server
    server.stop()


@pytest.fixture
def worker_process():
    """A worker in its own process (real wire, no GIL sharing with the
    driver -- in-process workers starve the driver thread mid-send and
    skew phase attribution)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        ["src"] + env.get("PYTHONPATH", "").split(os.pathsep)
    ).rstrip(os.pathsep)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "worker", "--serve", "127.0.0.1:0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, env=env,
    )
    line = proc.stdout.readline().strip()
    assert line.startswith("worker listening on"), line
    yield line.rsplit(" ", 1)[-1]
    proc.terminate()
    proc.wait(timeout=10)


class TestSpans:
    def test_span_records_duration_and_attrs(self):
        telemetry = Telemetry()
        with telemetry.span("outer", label="x"):
            time.sleep(0.01)
        (row,) = [r for r in telemetry.rows if r["kind"] == "span"]
        assert row["name"] == "outer"
        assert row["attrs"] == {"label": "x"}
        assert row["dur"] >= 0.01
        assert row["schema"] == TELEMETRY_SCHEMA_VERSION

    def test_spans_nest_and_record_parent(self):
        telemetry = Telemetry()
        with telemetry.span("outer"):
            with telemetry.span("inner"):
                pass
        by_name = {r["name"]: r for r in telemetry.rows if r["kind"] == "span"}
        assert by_name["inner"]["parent"] == "outer"
        assert by_name["outer"]["parent"] is None
        assert by_name["inner"]["dur"] <= by_name["outer"]["dur"]

    def test_span_set_and_error_capture(self):
        telemetry = Telemetry()
        with pytest.raises(RuntimeError):
            with telemetry.span("failing") as span:
                span.set(extra=7)
                raise RuntimeError("boom")
        (row,) = [r for r in telemetry.rows if r["kind"] == "span"]
        assert row["attrs"]["extra"] == 7
        assert row["attrs"]["error"] == "RuntimeError"

    def test_nesting_is_per_thread(self):
        """Each thread has its own span stack: concurrent spans in other
        threads must not become parents across threads."""
        telemetry = Telemetry()
        barrier = threading.Barrier(2)

        def work(name):
            with telemetry.span(name):
                barrier.wait()
                with telemetry.span(f"{name}.child"):
                    pass
                barrier.wait()

        threads = [
            threading.Thread(target=work, args=(f"t{i}",)) for i in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        by_name = {r["name"]: r for r in telemetry.rows
                   if r["kind"] == "span"}
        assert by_name["t0.child"]["parent"] == "t0"
        assert by_name["t1.child"]["parent"] == "t1"
        assert by_name["t0"]["parent"] is None
        assert by_name["t1"]["parent"] is None

    def test_event_records_offset_and_attrs(self):
        telemetry = Telemetry()
        telemetry.event("tick", k=1)
        (row,) = [r for r in telemetry.rows if r["kind"] == "event"]
        assert row["kind"] == "event"
        assert row["name"] == "tick"
        assert row["attrs"] == {"k": 1}
        assert row["at"] >= 0


class TestDisabled:
    def test_disabled_span_is_the_shared_null_span(self):
        assert DISABLED.span("anything", k=1) is NULL_SPAN
        assert spans_module.span("anything") is NULL_SPAN

    def test_disabled_records_nothing(self):
        with DISABLED.span("x"):
            pass
        DISABLED.event("y", k=1)
        assert DISABLED.rows == []

    def test_disabled_module_path_allocates_nothing(self):
        """The hot path with telemetry off: no per-call garbage."""
        # Warm up any lazy caches first.
        for _ in range(10):
            with spans_module.span("warm"):
                pass
            spans_module.event("warm")
        before = sys.getallocatedblocks()
        for _ in range(1000):
            with spans_module.span("hot"):
                pass
            spans_module.event("hot")
        after = sys.getallocatedblocks()
        # Unrelated interpreter activity can wiggle the counter by a
        # few blocks; 1000 iterations of real allocation would add
        # thousands.
        assert after - before < 50

    def test_activate_restores_previous(self):
        telemetry = Telemetry()
        assert current() is DISABLED
        with activate(telemetry):
            assert current() is telemetry
            with telemetry.span("inside"):
                pass
        assert current() is DISABLED
        assert any(r.get("name") == "inside" for r in telemetry.rows)


class TestSink:
    def test_rows_roundtrip_with_schema(self, tmp_path):
        sink = tmp_path / "tele.jsonl"
        telemetry = Telemetry(sink)
        with telemetry.span("outer", k="v"):
            telemetry.event("ev", n=3)
        telemetry.close()
        rows = load_telemetry(sink)
        assert rows[0]["kind"] == "meta"
        assert all(r["schema"] == TELEMETRY_SCHEMA_VERSION for r in rows)
        names = [(r["kind"], r.get("name")) for r in rows[1:]]
        assert names == [("event", "ev"), ("span", "outer")]
        assert rows[2]["attrs"] == {"k": "v"}

    def test_schema_mismatch_rejected(self, tmp_path):
        sink = tmp_path / "tele.jsonl"
        sink.write_text(json.dumps({"schema": 999, "kind": "event"}) + "\n")
        with pytest.raises(ValueError, match="schema"):
            load_telemetry(sink)

    def test_corrupt_line_rejected(self, tmp_path):
        sink = tmp_path / "tele.jsonl"
        sink.write_text("{not json\n")
        with pytest.raises(ValueError):
            load_telemetry(sink)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_telemetry(tmp_path / "nope.jsonl")


class TestInstrumentedCampaigns:
    def test_rows_identical_with_and_without_telemetry(self, worker):
        address = f"{worker.host}:{worker.port}"
        baseline = CampaignRunner().run(GRID_SMALL).rows
        runs = {
            "serial": CampaignRunner(
                backend=SerialBackend(), telemetry=Telemetry()
            ),
            "pool": CampaignRunner(
                backend=PoolBackend(workers=2), telemetry=Telemetry()
            ),
            "socket": CampaignRunner(
                backend=SocketBackend([address]), telemetry=Telemetry()
            ),
        }
        for name, runner in runs.items():
            result = runner.run(GRID_SMALL)
            assert rows_blob(result.rows) == rows_blob(baseline), name
            assert any(
                r["kind"] == "event" and r["name"] == "job"
                for r in runner.telemetry.rows
            ), name

    def test_serial_campaign_emits_expected_vocabulary(self, tmp_path):
        store = tmp_path / "store.jsonl"
        telemetry = Telemetry()
        from repro.runtime import ResultStore

        CampaignRunner(store=ResultStore(store), telemetry=telemetry).run(
            GRID_SMALL
        )
        names = {(r["kind"], r.get("name")) for r in telemetry.rows}
        assert ("span", "campaign") in names
        assert ("span", "store.append") in names
        assert ("span", "store.sync") in names
        assert ("event", "job") in names
        assert ("event", "campaign.stats") in names

    @pytest.mark.timing
    def test_socket_campaign_accounts_for_wall_clock(self, worker_process):
        """Acceptance: single worker, window=1 -- recorded phases cover
        >= 95% of the campaign wall clock (the driver thread is either
        connecting, serializing, or waiting on an in-flight job).  The
        ratio divides two wall-clock sums and dips below the floor when
        a loaded suite delays the worker process, hence the ``timing``
        marker."""
        telemetry = Telemetry()
        backend = SocketBackend([worker_process], window=1)
        result = CampaignRunner(backend=backend, telemetry=telemetry).run(
            GRID_30
        )
        assert result.stats.executed == 30
        cov = obs_stats.coverage(telemetry.rows)
        assert cov is not None and cov >= 0.95, f"coverage {cov}"

    @pytest.mark.timing
    def test_socket_overhead_dominates_execute(self, worker_process):
        """Acceptance: with the default pipelined window, each job waits
        in the worker's inbound queue while its predecessor executes, so
        dispatch+wire+queue overhead visibly exceeds execute time -- the
        observation this subsystem exists to make.  It compares two
        wall-clock totals, hence the ``timing`` marker."""
        telemetry = Telemetry()
        backend = SocketBackend([worker_process])
        CampaignRunner(backend=backend, telemetry=telemetry).run(GRID_30)
        summary = obs_stats.wallclock_summary(telemetry.rows)
        assert summary["overhead_s"] > summary["execute_s"], summary

    def test_socket_phase_breakdown_and_worker_table(self, worker):
        address = f"{worker.host}:{worker.port}"
        telemetry = Telemetry()
        CampaignRunner(
            backend=SocketBackend([address]), telemetry=telemetry
        ).run(GRID_SMALL)
        breakdown = {row["phase"] for row in obs_stats.phase_breakdown(
            telemetry.rows
        )}
        assert {"execute", "serialize", "in flight",
                "wire+dispatch"} <= breakdown
        (worker_row,) = obs_stats.worker_utilization(telemetry.rows)
        assert worker_row["worker"] == address
        assert worker_row["jobs"] == len(GRID_SMALL.expand())
        assert worker_row["rtt_ms"] != ""

    @pytest.mark.parametrize(
        "workers, window", [(1, 1), (1, 8), (2, None)],
        ids=["1", "8", "2-workers-default-window"],
    )
    def test_phase_share_bounded_by_wall(self, workers, window):
        """Regression: per-job phases overlap (every queued job waits at
        once), and summing them against the wall used to print shares
        like ``queue wait* 2706.5%``.  share_% now unions reconstructed
        intervals, so every phase is <= 100% of the wall -- which also
        satisfies the weaker ``share <= 100 * concurrency`` invariant
        for any window/worker count (``None`` is the default window)."""
        servers = [WorkerServer() for _ in range(workers)]
        for server in servers:
            server.start()
        telemetry = Telemetry()
        try:
            CampaignRunner(
                backend=SocketBackend(
                    [server.address for server in servers],
                    **({} if window is None else {"window": window}),
                ),
                telemetry=telemetry,
            ).run(GRID_30)
        finally:
            for server in servers:
                server.stop()
        breakdown = obs_stats.phase_breakdown(telemetry.rows)
        assert breakdown
        wall = obs_stats.campaign_wall(telemetry.rows)
        # total_s sums durations and share_% measures their union, so
        # total_s >= share_% / 100 * wall up to display rounding
        # (total_s to 1e-4 s, share_% to 0.1 %).
        rounding = 0.05 / 100 * wall + 0.00005
        for row in breakdown:
            share = row["share_%"]
            assert share != "", row
            assert 0.0 <= share <= 100.0, row
            assert row["total_s"] >= share / 100 * wall - rounding, row
        # The overlap is real and still visible in the totals column:
        # the 30 pipelined jobs queue at once, so their summed queue
        # wait exceeds the union of their waits.
        queue = {row["phase"]: row for row in breakdown}["queue wait*"]
        assert queue["total_s"] > queue["share_%"] / 100 * wall + rounding

    def test_ping_rtt_in_backend_summary(self, worker):
        address = f"{worker.host}:{worker.port}"
        backend = SocketBackend([address])
        CampaignRunner(backend=backend).run(GRID_SMALL)
        summary = backend.summary()
        assert summary.startswith("socket: 1 worker(s)")
        assert "ping rtt ms min/mean/max" in summary
        assert backend.last_stats["ping_rtt_s"]

    def test_telemetry_path_owned_and_closed_by_runner(self, tmp_path):
        sink = tmp_path / "tele.jsonl"
        CampaignRunner(telemetry=sink).run(GRID_SMALL)
        rows = load_telemetry(sink)
        assert any(
            r["kind"] == "span" and r["name"] == "campaign" for r in rows
        )


class TestWorkerLogging:
    def test_structured_accept_handshake_disconnect_lines(self, caplog):
        with caplog.at_level(logging.INFO, logger="repro.worker"):
            server = WorkerServer()
            server.start()
            try:
                backend = SocketBackend([f"{server.host}:{server.port}"])
                CampaignRunner(backend=backend).run(GRID_SMALL)
            finally:
                server.stop()
        text = caplog.text
        assert "serving host=" in text
        assert "accept peer=" in text
        assert "handshake peer=" in text
        assert "disconnect peer=" in text

    def test_die_after_jobs_logged(self, caplog):
        with caplog.at_level(logging.WARNING, logger="repro.worker"):
            server = WorkerServer(die_after_jobs=2)
            server.start()
            address = f"{server.host}:{server.port}"
            try:
                backend = SocketBackend(
                    [address], job_timeout=2.0, ping_grace=1.0,
                )
                with pytest.raises(Exception):
                    CampaignRunner(backend=backend).run(GRID_SMALL)
            finally:
                server.stop()
        assert "die-after-jobs" in caplog.text

    def test_handler_writes_to_the_current_stderr(self, monkeypatch):
        # A stream closed after the handler was installed (pytest closes
        # each test's capture) must not swallow later worker-thread
        # lines as "--- Logging error ---".
        logger = logging.getLogger("repro")
        level = logger.level
        monkeypatch.setattr(logger, "handlers", [])
        installed, replacement = io.StringIO(), io.StringIO()
        monkeypatch.setattr(sys, "stderr", installed)
        try:
            configure_logging("info")
            installed.close()
            monkeypatch.setattr(sys, "stderr", replacement)
            logging.getLogger("repro.worker").info("after the swap")
        finally:
            logger.setLevel(level)
        assert "after the swap" in replacement.getvalue()
        assert "Logging error" not in replacement.getvalue()

    def test_kv_formats_floats_and_spaces(self):
        line = kv("ev", dur_s=0.1234567, msg="two words", n=3)
        assert line == "ev dur_s=0.123457 msg='two words' n=3"


class TestStatsCLI:
    def test_stats_renders_and_exits_zero(self, tmp_path, capsys):
        sink = tmp_path / "tele.jsonl"
        CampaignRunner(telemetry=sink).run(GRID_SMALL)
        assert main(["stats", str(sink)]) == 0
        out = capsys.readouterr().out
        assert "phase breakdown" in out
        assert "where did the wall-clock go" in out

    def test_stats_missing_file_exits_two(self, tmp_path, capsys):
        assert main(["stats", str(tmp_path / "nope.jsonl")]) == 2
        assert "error" in capsys.readouterr().err

    def test_stats_corrupt_sink_exits_two(self, tmp_path, capsys):
        sink = tmp_path / "tele.jsonl"
        sink.write_text("{broken\n")
        assert main(["stats", str(sink)]) == 2
        assert "error" in capsys.readouterr().err

    def test_stats_refuses_a_sink_of_several_runs(self, tmp_path, capsys):
        # --telemetry appends, and each run's clock restarts at its own
        # meta row: two runs cannot be rendered as one campaign.
        sink = tmp_path / "tele.jsonl"
        args = ["campaign", "--n", "5", "--budgets", "0,1",
                "--backend", "serial", "--telemetry", str(sink)]
        assert main(args) == 0
        assert main(args) == 0
        assert "executed 2" in capsys.readouterr().out
        assert main(["stats", str(sink)]) == 2
        err = capsys.readouterr().err
        assert "2 runs" in err and "--telemetry" in err

    def test_campaign_telemetry_flag_end_to_end(self, tmp_path, capsys):
        sink = tmp_path / "tele.jsonl"
        code = main([
            "campaign", "--n", "5", "--budgets", "0,1", "--seeds", "2",
            "--telemetry", str(sink),
        ])
        assert code == 0
        assert "telemetry: wrote" in capsys.readouterr().out
        rows = load_telemetry(sink)
        assert any(r.get("name") == "campaign" for r in rows)
        assert main(["stats", str(sink)]) == 0

    def test_worker_rejects_unknown_log_level(self, capsys):
        with pytest.raises(SystemExit):
            main(["worker", "--serve", "127.0.0.1:0", "--log-level", "loud"])


class TestSinkBytes:
    def test_sink_bytes_match_file_size(self, tmp_path):
        sink = tmp_path / "tele.jsonl"
        telemetry = Telemetry(sink)
        with telemetry.span("outer"):
            telemetry.event("ev", n=1)
        telemetry.close()
        assert telemetry.sink_bytes == sink.stat().st_size > 0

    def test_in_memory_telemetry_counts_nothing(self):
        telemetry = Telemetry()
        telemetry.event("ev")
        assert telemetry.sink_bytes == 0

    def test_warns_once_past_threshold(self, tmp_path, caplog, monkeypatch):
        monkeypatch.setattr(spans_module, "SINK_WARN_BYTES", 64)
        telemetry = Telemetry(tmp_path / "tele.jsonl")
        with caplog.at_level(logging.WARNING, logger="repro.obs"):
            for _ in range(10):
                telemetry.event("padding", blob="x" * 32)
        telemetry.close()
        warnings = [r for r in caplog.records
                    if "telemetry sink" in r.getMessage()]
        assert len(warnings) == 1  # one warning, not one per row

    def test_stats_summary_reports_sink_bytes(self, tmp_path, capsys):
        sink = tmp_path / "tele.jsonl"
        CampaignRunner(telemetry=sink).run(GRID_SMALL)
        assert main(["stats", str(sink)]) == 0
        assert f"sink bytes {sink.stat().st_size}" in capsys.readouterr().out


class TestDegenerateSinks:
    """Sinks that are valid JSONL but carry less than a full campaign:
    every reader must degrade, never throw."""

    META_ROW = {"schema": TELEMETRY_SCHEMA_VERSION, "kind": "meta",
                "wall": 0.0}
    EVENT_ROW = {"schema": TELEMETRY_SCHEMA_VERSION, "kind": "event",
                 "name": "job", "at": 0.1,
                 "attrs": {"scenario": "s", "rounds": 1}}

    def cases(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        meta_only = tmp_path / "meta.jsonl"
        meta_only.write_text(json.dumps(self.META_ROW) + "\n")
        events_only = tmp_path / "events.jsonl"
        events_only.write_text(
            json.dumps(self.META_ROW) + "\n"
            + json.dumps(self.EVENT_ROW) + "\n"
        )
        return {"empty": empty, "meta_only": meta_only,
                "events_without_spans": events_only}

    def test_render_stats_degrades(self, tmp_path):
        for name, sink in self.cases(tmp_path).items():
            rows = load_telemetry(sink)
            text = obs_stats.render_stats(rows, source=str(sink))
            assert "telemetry:" in text, name  # header always present
            assert "wall" in text, name  # summary line always present

    def test_phase_breakdown_and_coverage_degrade(self, tmp_path):
        for name, sink in self.cases(tmp_path).items():
            rows = load_telemetry(sink)
            breakdown = obs_stats.phase_breakdown(rows)
            assert isinstance(breakdown, list), name
            # No campaign span -> coverage has no denominator.
            assert obs_stats.coverage(rows) is None, name
            assert obs_stats.worker_utilization(rows) == [], name

    def test_wallclock_summary_degrades(self, tmp_path):
        for name, sink in self.cases(tmp_path).items():
            rows = load_telemetry(sink)
            summary = obs_stats.wallclock_summary(rows)
            assert summary["wall_s"] is None, name
            assert summary["jobs"] in (0, 1), name

    def test_main_stats_exits_zero(self, tmp_path, capsys):
        for name, sink in self.cases(tmp_path).items():
            assert main(["stats", str(sink)]) == 0, name
            assert "telemetry:" in capsys.readouterr().out, name


class TestExperimentAPI:
    def test_run_accepts_telemetry_instance(self):
        telemetry = Telemetry()
        campaign = Experiment(n=[5], budget=[0, 1]).run(telemetry=telemetry)
        assert campaign.telemetry is telemetry
        assert any(r.get("name") == "campaign" for r in telemetry.rows)

    def test_run_accepts_telemetry_path(self, tmp_path):
        sink = tmp_path / "tele.jsonl"
        campaign = Experiment(n=[5], budget=[0]).run(telemetry=str(sink))
        # Path-based sinks are owned (and closed) by the runner, not
        # exposed on the campaign.
        assert campaign.telemetry is None
        assert load_telemetry(sink)
