"""The runtime lock-order watchdog: recording, inversion detection,
zero-cost disabled path, and the full socket-campaign acceptance run.

The load-bearing assertions: a real distributed campaign (store +
telemetry + metrics + socket backend + in-process workers) records at
least two distinct lock-order pairs, none inverted, and the union of
those observed orders with the statically-extracted lock graph is
acyclic -- the dynamic half of ``repro lint``'s C-series.
"""

import sys
import threading
from pathlib import Path

from repro.analysis import watchdog as watchdog_module
from repro.analysis.watchdog import (
    DISABLED,
    LockOrderWatchdog,
    TracedLock,
    find_cycle,
    traced_lock,
)
from repro.obs import metrics as metrics_module
from repro.obs import spans as spans_module
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import Telemetry
from repro.runtime import (
    ResultStore,
    ScenarioGrid,
    SocketBackend,
    WorkerServer,
    run_campaign,
)

REPO = Path(__file__).resolve().parents[1]


class TestFindCycle:
    def test_acyclic_and_cyclic(self):
        assert find_cycle([("a", "b"), ("b", "c"), ("a", "c")]) is None
        cycle = find_cycle([("a", "b"), ("b", "c"), ("c", "a")])
        assert cycle is not None
        assert cycle[0] == cycle[-1]
        assert set(cycle) == {"a", "b", "c"}

    def test_two_node_inversion_is_a_cycle(self):
        assert find_cycle([("a", "b"), ("b", "a")]) is not None


class TestWatchdogRecording:
    def test_nested_acquisition_records_ordered_pairs(self):
        watchdog = LockOrderWatchdog()
        outer, inner = traced_lock("outer"), traced_lock("inner")
        with watchdog_module.activate(watchdog):
            with outer:
                with inner:
                    pass
        assert watchdog.pairs() == {("outer", "inner"): 1}
        assert watchdog.inversions() == []
        assert watchdog.check() is None

    def test_inversion_detected_across_threads(self):
        watchdog = LockOrderWatchdog()
        a, b = traced_lock("a"), traced_lock("b")

        def forward():
            with a:
                with b:
                    pass

        def backward():
            with b:
                with a:
                    pass

        with watchdog_module.activate(watchdog):
            forward()
            thread = threading.Thread(target=backward)
            thread.start()
            thread.join()
        assert watchdog.inversions() == [("a", "b")]
        assert watchdog.check() is not None

    def test_three_locks_record_transitive_pairs(self):
        watchdog = LockOrderWatchdog()
        locks = [traced_lock(name) for name in "abc"]
        with watchdog_module.activate(watchdog):
            with locks[0], locks[1], locks[2]:
                pass
        assert set(watchdog.pairs()) == {
            ("a", "b"), ("a", "c"), ("b", "c"),
        }

    def test_manual_hooks_compose_with_traced_locks(self):
        """The store's flock writer lock reports through the manual
        hooks and orders against TracedLocks like any other node."""
        watchdog = LockOrderWatchdog()
        inner = traced_lock("Telemetry._lock")
        with watchdog_module.activate(watchdog):
            watchdog_module.lock_acquired("ResultStore.writer_lock")
            with inner:
                pass
            watchdog_module.lock_released("ResultStore.writer_lock")
        assert ("ResultStore.writer_lock",
                "Telemetry._lock") in watchdog.pairs()

    def test_check_unions_static_edges(self):
        watchdog = LockOrderWatchdog()
        a, b = traced_lock("a"), traced_lock("b")
        with watchdog_module.activate(watchdog):
            with a:
                with b:
                    pass
        # Statically someone nests them the other way: that is a cycle
        # even though neither half sees one alone.
        assert watchdog.check(static_edges=[("b", "a")]) is not None
        assert watchdog.check(static_edges=[("a", "b")]) is None

    def test_release_out_of_order_is_tolerated(self):
        watchdog = LockOrderWatchdog()
        a, b, c = traced_lock("a"), traced_lock("b"), traced_lock("c")
        with watchdog_module.activate(watchdog):
            a.acquire()
            b.acquire()
            a.release()  # hand-over-hand: a released while b held
            with c:  # only b is still held here
                pass
            b.release()
        pairs = watchdog.pairs()
        assert ("a", "b") in pairs
        assert ("b", "c") in pairs
        assert ("a", "c") not in pairs

    def test_activation_restores_disabled(self):
        assert watchdog_module.current() is DISABLED
        watchdog = LockOrderWatchdog()
        with watchdog_module.activate(watchdog):
            assert watchdog_module.current() is watchdog
        assert watchdog_module.current() is DISABLED

    def test_reset_clears_pairs(self):
        watchdog = LockOrderWatchdog()
        with watchdog_module.activate(watchdog):
            with traced_lock("x"):
                with traced_lock("y"):
                    pass
        watchdog.reset()
        assert watchdog.pairs() == {}


class TestTracedLockSemantics:
    def test_mutual_exclusion_and_locked(self):
        lock = TracedLock("t")
        assert not lock.locked()
        with lock:
            assert lock.locked()
            assert lock.acquire(blocking=False) is False
        assert not lock.locked()
        assert lock.acquire(blocking=False) is True
        lock.release()

    def test_disabled_path_allocates_nothing(self):
        """Same contract and technique as NULL_SPAN / NULL_METRIC: with
        the watchdog off, instrumented locks cost no garbage."""
        assert watchdog_module.current() is DISABLED
        lock = traced_lock("hot")
        for _ in range(10):
            with lock:
                pass
            watchdog_module.lock_acquired("warm")
            watchdog_module.lock_released("warm")
        before = sys.getallocatedblocks()
        for _ in range(1000):
            with lock:
                pass
            watchdog_module.lock_acquired("hot-manual")
            watchdog_module.lock_released("hot-manual")
        after = sys.getallocatedblocks()
        assert after - before < 50


class TestSocketCampaignLockOrders:
    def test_campaign_records_pairs_and_no_inversions(self, tmp_path):
        """The ISSUE's acceptance run: a socket campaign under the
        watchdog observes >=2 distinct lock pairs (store writer lock
        around telemetry/metrics locks at minimum) and no inversion,
        and stays consistent with the static C-series graph."""
        watchdog = LockOrderWatchdog()
        telemetry = Telemetry(tmp_path / "tele.jsonl")
        registry = MetricsRegistry()
        servers = [WorkerServer(), WorkerServer()]
        for server in servers:
            server.start()
        try:
            with watchdog_module.activate(watchdog), \
                    spans_module.activate(telemetry), \
                    metrics_module.activate(registry):
                backend = SocketBackend(
                    [server.address for server in servers]
                )
                result = run_campaign(
                    ScenarioGrid(n=[5, 6], budget=[0, 1],
                                 adversary=["silent"]),
                    store=ResultStore(tmp_path / "rows.jsonl"),
                    backend=backend,
                )
        finally:
            for server in servers:
                server.stop()
        assert len(result.rows) == 4

        pairs = watchdog.pairs()
        assert len(pairs) >= 2, pairs
        writer_inner = {
            inner for (outer, inner) in pairs
            if outer == "ResultStore.writer_lock"
        }
        assert len(writer_inner) >= 2, pairs
        assert watchdog.inversions() == []

        # Union with the statically-visible lock graph: still acyclic.
        from repro.analysis.concurrency import static_lock_edges
        from repro.analysis.engine import FileContext, discover

        contexts = []
        for path in discover([str(REPO / "src" / "repro" / "runtime"),
                              str(REPO / "src" / "repro" / "obs")]):
            contexts.append(FileContext(
                path, str(path), path.read_text(encoding="utf-8"),
            ))
        static = [(src, dst) for src, dst, _, _ in
                  static_lock_edges(contexts)]
        assert watchdog.check(static_edges=static) is None

    def test_worker_shard_locks_are_observed(self, tmp_path):
        """A campaign plus a stop() exercise the worker-side traced
        locks; the send and accounting/registry domains must stay
        un-nested (no pair between any two WorkerServer locks).  The
        name predates the removal of worker result shards."""
        watchdog = LockOrderWatchdog()
        server = WorkerServer()
        server.start()
        try:
            with watchdog_module.activate(watchdog):
                backend = SocketBackend([server.address])
                result = run_campaign(
                    ScenarioGrid(n=[5], budget=[0, 1],
                                 adversary=["silent"]),
                    store=ResultStore(tmp_path / "rows.jsonl"),
                    backend=backend,
                )
                server.stop()
        finally:
            server.stop()
        assert len(result.rows) == 2
        worker_pairs = [
            (outer, inner) for (outer, inner) in watchdog.pairs()
            if outer.startswith("WorkerServer.")
            and inner.startswith("WorkerServer.")
        ]
        assert worker_pairs == []
        assert watchdog.inversions() == []
