"""Metrics registry + live view tests.

The load-bearing properties, mirroring the span layer's:

* the **disabled path allocates nothing** -- the module-level helpers
  against the default disabled registry are identity-shared no-ops
  (``NULL_METRIC``), verified with the same ``sys.getallocatedblocks``
  technique as ``NULL_SPAN``;
* campaigns are **byte-identical** with metrics/live on or off (the
  cross-backend cases live in ``test_equivalence_matrix.py``; here the
  serial case plus the reporter's output contract);
* the wire-v6 worker self-report reaches the driver: ``pong`` and
  ``results`` frames carry snapshots, the teardown ``socket.worker``
  event records them, and ``repro stats`` renders the extra columns.
"""

import io
import json
import sys
import threading

import pytest

from repro.obs import MetricsRegistry, NULL_METRIC
from repro.obs import metrics as metrics_module
from repro.obs.live import LiveReporter, render_worker_table
from repro.obs.metrics import DISABLED_REGISTRY
from repro.obs.spans import Telemetry
from repro.obs.stats import render_stats, worker_utilization
from repro.runtime import (
    CampaignRunner,
    ScenarioGrid,
    SerialBackend,
    SocketBackend,
    WorkerServer,
)
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
    def test_counter_gauge_histogram(self):
        registry = MetricsRegistry()
        registry.inc("c", 2)
        registry.inc("c")
        registry.set_gauge("g", 7.5)
        registry.gauge("g").inc(-2.5)
        assert registry.value("c") == 3
        assert registry.value("g") == 5.0
        assert registry.value("missing", default=-1) == -1

    def test_metric_handles_are_stable(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        assert registry.gauge("y") is registry.gauge("y")

    def test_reset_drops_everything(self):
        registry = MetricsRegistry()
        registry.inc("a")
        registry.set_gauge("b", 1)
        registry.reset()
        assert registry.value("a", default=None) is None
        assert registry.value("b", default=None) is None

    def test_thread_safety(self):
        registry = MetricsRegistry()

        def work():
            for _ in range(1000):
                registry.inc("n")
                registry.gauge("level").inc(1)
                registry.gauge("level").inc(-1)

        threads = [threading.Thread(target=work) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert registry.value("n") == 4000
        assert registry.value("level") == 0


class TestDisabled:
    def test_disabled_hands_out_the_shared_null_metric(self):
        assert DISABLED_REGISTRY.counter("anything") is NULL_METRIC
        assert DISABLED_REGISTRY.gauge("anything") is NULL_METRIC

    def test_disabled_records_nothing(self):
        DISABLED_REGISTRY.inc("c")
        DISABLED_REGISTRY.set_gauge("g", 1)
        assert DISABLED_REGISTRY.value("c", default=None) is None
        assert DISABLED_REGISTRY.value("g", default=None) is None

    def test_disabled_module_path_allocates_nothing(self):
        """The hot path with metrics off: no per-call garbage (the same
        contract, and the same technique, as the NULL_SPAN test)."""
        assert metrics_module.current() is DISABLED_REGISTRY
        for _ in range(10):
            metrics_module.inc("warm")
            metrics_module.set_gauge("warm", 1)
            metrics_module.inc_gauge("warm", 1)
        before = sys.getallocatedblocks()
        for _ in range(1000):
            metrics_module.inc("hot")
            metrics_module.set_gauge("hot", 1)
            metrics_module.inc_gauge("hot", 1)
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

    def test_store_lock_wait_histogram(self, tmp_path):
        registry = MetricsRegistry()
        with metrics_module.activate(registry):
            store = ResultStore(tmp_path / "s.jsonl")
            store.acquire_lock()
            store.release_lock()
        assert registry.value("store.lock_acquisitions") == 1

    def test_perf_cache_report_sets_hit_rate_gauges(self):
        from repro.crypto.keys import KeyStore
        from repro.perf import cache_report

        keystore = KeyStore(4, seed=1)
        registry = MetricsRegistry()
        with metrics_module.activate(registry):
            report = cache_report(keystore=keystore)
        for name, stats in report.items():
            if isinstance(stats.get("hit_rate"), (int, float)):
                assert registry.value(f"perf.{name}.hit_rate") == (
                    stats["hit_rate"]
                )

    def test_campaign_counters_and_identity_serial(self):
        baseline = CampaignRunner(backend=SerialBackend()).run(GRID_SMALL)
        registry = MetricsRegistry()
        with metrics_module.activate(registry):
            live = CampaignRunner(backend=SerialBackend()).run(GRID_SMALL)
        assert rows_blob(live.rows) == rows_blob(baseline.rows)
        assert registry.value("campaign.completed") == len(baseline.rows)
        assert registry.value("campaign.total") == len(baseline.rows)
        assert registry.value("campaign.rows_per_s") > 0


class TestLiveReporter:
    def test_non_tty_appends_live_lines(self):
        stream = io.StringIO()
        registry = MetricsRegistry()
        with metrics_module.activate(registry):
            reporter = LiveReporter(4, stream=stream, interval=0.01)
            reporter.start()
            registry.inc("campaign.completed", 3)
            registry.inc("campaign.failed")
            registry.set_gauge("campaign.cached", 2)
            reporter.stop()
        lines = [l for l in stream.getvalue().splitlines() if l]
        assert len(lines) >= 2  # guaranteed opening + closing lines
        assert all(line.startswith("live: ") for line in lines)
        assert "\r" not in stream.getvalue()
        final = lines[-1]
        assert "4/4 done" in final
        assert "failed 1" in final
        assert "wall" in final

    def test_tty_redraws_one_line(self):
        class Tty(io.StringIO):
            def isatty(self):
                return True

        stream = Tty()
        registry = MetricsRegistry()
        with metrics_module.activate(registry):
            reporter = LiveReporter(1, stream=stream, interval=0.01)
            reporter.start()
            registry.inc("campaign.completed")
            reporter.stop()
        text = stream.getvalue()
        assert text.count("\r") >= 2
        assert text.endswith("\n")  # final render left on screen

    def test_worker_cells_from_backend(self):
        class FakeBackend:
            def live_workers(self):
                return [{"worker": "127.0.0.1:7501", "inflight": 3, "window": 2,
                         "queue": 1, "exec/s": 12.5, "rtt_ms": 0.4,
                         "done": 9, "completed": 9}]

        registry = MetricsRegistry()
        with metrics_module.activate(registry):
            reporter = LiveReporter(
                10, backend=FakeBackend(), stream=io.StringIO())
            line = reporter.compose()
        assert "127.0.0.1:7501:3/w2" in line
        assert "q1" in line
        assert "12.5/s" in line

    def test_render_worker_table(self):
        table = render_worker_table([
            {"worker": "127.0.0.1:7502", "inflight": 1, "window": 2, "rtt_ms": 0.5,
             "queue": 0, "done": 4, "exec/s": 8.0, "completed": 4},
        ])
        assert "127.0.0.1:7502" in table
        assert render_worker_table([]) == "live: no workers"

    def test_reporter_never_raises_out_of_render(self):
        class Broken:
            def live_workers(self):
                raise RuntimeError("boom")

        registry = MetricsRegistry()
        stream = io.StringIO()
        with metrics_module.activate(registry):
            reporter = LiveReporter(1, backend=Broken(), stream=stream,
                                    interval=0.01)
            reporter.start()
            reporter.stop()  # must not raise


class TestWorkerMetricsOverTheWire:
    def test_snapshot_reaches_stats(self, worker):
        """End to end: worker executes a campaign, its wire-v6 snapshots
        ride back on results frames, the teardown ``socket.worker`` event
        records them, and ``repro stats`` renders the extra columns."""
        telemetry = Telemetry()
        backend = SocketBackend([worker.address], job_timeout=30.0)
        runner = CampaignRunner(backend=backend, telemetry=telemetry)
        result = runner.run(GRID_SMALL)
        assert len(result.rows) == 4
        events = [r for r in telemetry.rows
                  if r.get("kind") == "event"
                  and r.get("name") == "socket.worker"]
        assert events, "teardown socket.worker event missing"
        attrs = events[-1]["attrs"]
        assert attrs["w_done"] == 4
        assert attrs["w_exec_s"] > 0
        assert attrs["w_up_s"] > 0
        table = worker_utilization(telemetry.rows)
        assert table[0]["w_done"] == 4
        assert table[0]["exec/s"] != ""
        text = render_stats(telemetry.rows)
        assert "w_done" in text
        assert "exec/s" in text

    def test_live_workers_rows(self, worker):
        backend = SocketBackend([worker.address], job_timeout=30.0)
        result = CampaignRunner(backend=backend).run(GRID_SMALL)
        assert len(result.rows) == 4
        rows = backend.live_workers()
        assert len(rows) == 1
        assert rows[0]["completed"] == 4
        assert rows[0]["done"] == 4  # the worker's own count, via wire v6
        assert rows[0]["inflight"] == 0
        assert rows[0]["rtt_ms"] is not None

    def test_v6_worker_refuses_v5_driver(self, worker, monkeypatch):
        """A v5 driver would silently miss the metrics self-report, so
        the skew is refused at handshake, not papered over."""
        from repro.runtime.backends import socketbackend as sb
        from repro.runtime.backends.base import BackendError

        monkeypatch.setattr(sb, "PROTOCOL_VERSION", 5)
        backend = SocketBackend([worker.address])
        with pytest.raises(BackendError, match="version mismatch"):
            backend._connect(worker.address)
        backend.close()
