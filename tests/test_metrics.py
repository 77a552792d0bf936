"""Metrics registry + live view tests.

The load-bearing properties, mirroring the span layer's:

* the **disabled path allocates nothing** -- the module-level ``inc``
  against the default disabled registry returns after one attribute
  check, verified with the same ``sys.getallocatedblocks`` technique as
  ``NULL_SPAN``;
* the live view reads the runner's ``CampaignStats`` and the socket
  driver's own link state, and campaigns are **byte-identical** with it
  on (the cross-backend cases live in ``test_equivalence_matrix.py``;
  here the serial case plus the reporter's output contract);
* ``repro stats`` derives per-worker utilization from the ``job``
  events every socket result records.
"""

import io
import json
import sys
import threading

import pytest

from repro.obs import MetricsRegistry
from repro.obs import metrics as metrics_module
from repro.obs.live import LiveReporter
from repro.obs.metrics import DISABLED_REGISTRY
from repro.obs.stats import worker_utilization
from repro.runtime import (
    CampaignRunner,
    ScenarioGrid,
    SerialBackend,
    SocketBackend,
    WorkerServer,
)
from repro.runtime.runner import CampaignStats
from repro.runtime.store import ResultStore

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


class TestRegistry:
    def test_counters_accumulate(self):
        registry = MetricsRegistry()
        registry.inc("c", 2)
        registry.inc("c")
        registry.inc("bytes", 40)
        assert registry.value("c") == 3
        assert registry.value("bytes") == 40
        assert registry.value("missing") == 0
        assert registry.value("missing", default=-1) == -1

    def test_thread_safety(self):
        registry = MetricsRegistry()

        def work():
            for _ in range(1000):
                registry.inc("n")

        threads = [threading.Thread(target=work) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
            assert not thread.is_alive()
        assert registry.value("n") == 4000


class TestDisabled:
    def test_disabled_records_nothing(self):
        DISABLED_REGISTRY.inc("c")
        assert DISABLED_REGISTRY.value("c", default=None) is None

    def test_disabled_module_path_allocates_nothing(self):
        """The hot path with metrics off: no per-call garbage (the same
        contract, and the same technique, as the NULL_SPAN test)."""
        assert metrics_module.current() is DISABLED_REGISTRY
        for _ in range(10):
            metrics_module.inc("warm")
            metrics_module.inc("warm", 7)
        before = sys.getallocatedblocks()
        for _ in range(1000):
            metrics_module.inc("hot")
            metrics_module.inc("hot", 7)
        after = sys.getallocatedblocks()
        assert after - before < 50

    def test_activate_restores_previous(self):
        registry = MetricsRegistry()
        assert metrics_module.current() is DISABLED_REGISTRY
        with metrics_module.activate(registry):
            assert metrics_module.current() is registry
            metrics_module.inc("inside")
        assert metrics_module.current() is DISABLED_REGISTRY
        assert registry.value("inside") == 1


class TestInstrumentation:
    def test_store_put_counts_appends_and_bytes(self, tmp_path):
        registry = MetricsRegistry()
        with metrics_module.activate(registry):
            store = ResultStore(tmp_path / "s.jsonl")
            store.put("k1", {"a": 1})
            store.put("k2", {"b": 2})
            store.close()
        assert registry.value("store.appends") == 2
        assert registry.value("store.append_bytes") == (
            (tmp_path / "s.jsonl").stat().st_size
        )


class TestLiveReporter:
    def test_non_tty_appends_live_lines(self):
        stream = io.StringIO()
        stats = CampaignStats()
        reporter = LiveReporter(stats, 4, stream=stream, interval=0.01)
        reporter.start()
        stats.executed = 3
        stats.failed = 1
        stats.cached = 2
        reporter.stop()
        lines = [l for l in stream.getvalue().splitlines() if l]
        assert len(lines) >= 2  # guaranteed opening + closing lines
        assert all(line.startswith("live: ") for line in lines)
        assert "\r" not in stream.getvalue()
        final = lines[-1]
        assert "4/4 done" in final
        assert "cached 2" in final
        assert "failed 1" in final
        assert "wall" in final

    def test_tty_redraws_one_line(self):
        class Tty(io.StringIO):
            def isatty(self):
                return True

        stream = Tty()
        stats = CampaignStats()
        reporter = LiveReporter(stats, 1, stream=stream, interval=0.01)
        reporter.start()
        stats.executed = 1
        reporter.stop()
        text = stream.getvalue()
        assert text.count("\r") >= 2
        assert text.endswith("\n")  # final render left on screen

    def test_worker_cells_from_backend(self):
        class FakeBackend:
            def live_workers(self):
                return [{"worker": "127.0.0.1:7501", "inflight": 2,
                         "window": 2, "completed": 9, "rtt_ms": 0.4}]

        reporter = LiveReporter(CampaignStats(), 10, backend=FakeBackend(),
                                stream=io.StringIO())
        line = reporter.compose()
        assert "workers [127.0.0.1:7501:2/w2 done 9 0.4ms]" in line

    def test_reporter_never_raises_out_of_render(self):
        class Broken:
            def live_workers(self):
                raise RuntimeError("boom")

        stream = io.StringIO()
        reporter = LiveReporter(CampaignStats(), 1, backend=Broken(),
                                stream=stream, interval=0.01)
        reporter.start()
        reporter.stop()  # must not raise

    def test_serial_live_run_closes_on_the_runner_stats(self, tmp_path,
                                                        capsys):
        """The closing ``live:`` line reads the run's own stats -- the
        scenarios it executed and the ones the store already held --
        and the reporter thread is gone once ``run()`` returns."""
        specs = GRID_SMALL.expand()
        store = ResultStore(tmp_path / "live.jsonl")
        CampaignRunner(store=store).run(specs[:1])
        capsys.readouterr()
        result = CampaignRunner(store=store, live=True).run(specs)
        store.close()
        err = capsys.readouterr().err
        final = [line for line in err.splitlines()
                 if line.startswith("live: ")][-1]
        stats = result.stats
        done = stats.executed + stats.failed
        assert (done, stats.cached) == (len(specs) - 1, 1)
        assert f"live: {done}/{done} done" in final
        assert f"cached {stats.cached}" in final
        assert rows_blob(result.rows) == rows_blob(
            CampaignRunner(backend=SerialBackend()).run(specs).rows)
        assert not [thread for thread in threading.enumerate()
                    if thread.name == "live-reporter"]


class TestWorkerUtilization:
    @staticmethod
    def job(worker, at, inflight_s):
        return {"kind": "event", "name": "job", "at": at,
                "attrs": {"worker": worker, "inflight_s": inflight_s,
                          "exec_s": inflight_s / 2}}

    def sink(self, campaign=True):
        rows = [
            # Worker a: [0.5, 1.0] and [0.8, 1.2] overlap.
            self.job("a", 1.0, 0.5),
            self.job("a", 1.2, 0.4),
            # Worker b: [0.8, 1.0], then [1.0, 1.5] opening as it closes.
            self.job("b", 1.0, 0.2),
            self.job("b", 1.5, 0.5),
            {"kind": "event", "name": "socket.connect", "at": 0.1,
             "attrs": {"worker": "a", "dur_s": 0.01, "rtt_s": 0.002}},
        ]
        if campaign:
            rows.append({"kind": "span", "name": "campaign", "start": 0.0,
                         "dur": 2.0, "attrs": {}})
        return rows

    def test_derived_from_job_intervals(self):
        a, b = worker_utilization(self.sink())
        assert (a["worker"], a["jobs"], a["peak_win"]) == ("a", 2, 2)
        assert a["busy_s"] == pytest.approx(0.7)  # the union, not 0.9
        assert a["util_%"] == pytest.approx(35.0)
        assert a["mean_win"] == pytest.approx(0.9 / 2.0, abs=1e-3)
        assert a["rtt_ms"] == pytest.approx(2.0)
        assert (b["worker"], b["jobs"], b["peak_win"]) == ("b", 2, 1)
        assert b["busy_s"] == pytest.approx(0.7)
        assert b["util_%"] == pytest.approx(35.0)
        assert b["rtt_ms"] == ""

    def test_shares_blank_without_a_campaign_span(self):
        a, b = worker_utilization(self.sink(campaign=False))
        assert a["busy_s"] == pytest.approx(0.7)
        assert a["peak_win"] == 2
        for row in (a, b):
            assert row["util_%"] == ""
            assert row["mean_win"] == ""


class TestWorkerMetricsOverTheWire:
    def test_live_workers_rows(self, worker):
        backend = SocketBackend([worker.address], job_timeout=30.0)
        result = CampaignRunner(backend=backend).run(GRID_SMALL)
        assert len(result.rows) == 4
        rows = backend.live_workers()
        assert len(rows) == 1
        assert rows[0]["worker"] == worker.address
        assert rows[0]["completed"] == 4
        assert rows[0]["inflight"] == 0
        assert rows[0]["window"] == backend.window
        assert rows[0]["rtt_ms"] is not None

    def test_v6_worker_refuses_v5_driver(self, worker, monkeypatch):
        """A v7 driver expects the dropped worker self-report, so a v8
        worker refuses it at handshake instead of papering over the
        skew."""
        from repro.runtime.backends import socketbackend as sb
        from repro.runtime.backends.base import BackendError
        from repro.runtime.backends.wire import PROTOCOL_VERSION

        assert PROTOCOL_VERSION == 8
        monkeypatch.setattr(sb, "PROTOCOL_VERSION", 7)
        backend = SocketBackend([worker.address])
        with pytest.raises(BackendError, match="version mismatch"):
            backend._connect(worker.address)
        backend.close()
