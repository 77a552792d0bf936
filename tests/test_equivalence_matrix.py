"""The backend-equivalence matrix: one parametrized byte-identity harness.

Every cell of ``{serial, pool, socket} x chaos {off, driver-side,
worker-side}`` must produce rows byte-identical to the serial baseline
on the 30-scenario grid, at every pipeline depth -- including when
a worker dies with its whole window in flight.  Rows are pure functions
of their scenario specs, so *no* transport, pipelining, fault, or
recovery decision is allowed to change a single byte.

This file supersedes the ad-hoc equivalence tests that used to live in
``test_backends.py`` (serial/pool/socket identity, Experiment-front-door
identity) and ``test_chaos.py`` (driver-/worker-side chaos identity):
one matrix, every axis, same assertion.
"""

import json

import pytest

from repro.api import Experiment
from repro.runtime import (
    CampaignRunner,
    ChaosPolicy,
    ScenarioGrid,
    SerialBackend,
    PoolBackend,
    SocketBackend,
    WorkerServer,
)

#: The ISSUE equivalence grid: 30 scenarios across sizes, budgets,
#: adversaries.
GRID_30 = ScenarioGrid(
    n=[5, 6, 7], budget=[0, 1, 2, 3, 4], adversary=["silent", "noise"]
)

#: Pipeline windows (jobs in flight per worker): no pipelining, a
#: partial window, and one deeper than any worker's share of the grid
#: (every job is in flight at once, so a reset or a death hits all of
#: them).
WINDOWS = (1, 8, 64)

#: Chaos axis.  ``driver`` injects faults on the driver's sockets (drop
#: starves jobs into the resend path, reset tears links into reconnect,
#: delay shakes interleaving); ``worker`` corrupts frames the worker
#: sends back (checksum refuses them, the session drops, the in-flight
#: jobs re-run).
CHAOS_MODES = ("off", "driver", "worker")


def sorted_rows_blob(rows):
    """Canonical bytes for row-set comparison (order-insensitive)."""
    ordered = sorted(rows, key=lambda row: row["scenario"])
    return json.dumps(ordered, sort_keys=True).encode("utf-8")


def driver_chaos(mode):
    if mode != "driver":
        return None
    return ChaosPolicy(drop=0.08, delay=0.2, delay_s=0.05, reset=0.05,
                       seed=7)


def worker_chaos(mode):
    if mode != "worker":
        return None
    return ChaosPolicy(corrupt=0.08, delay=0.2, delay_s=0.05, seed=3)


@pytest.fixture(scope="module")
def baseline():
    """Serial reference rows for the grid (computed once per module)."""
    return CampaignRunner(backend=SerialBackend()).run(GRID_30).rows


def socket_backend(addresses, window, mode):
    """The matrix's socket backend: resilience timeouts tightened so
    chaos recovery converges quickly."""
    return SocketBackend(
        addresses,
        job_timeout=1.5 if mode != "off" else 60.0,
        ping_grace=2.0, backoff=0.05, degrade_after=30.0,
        window=window, chaos=driver_chaos(mode),
    )


class TestEquivalenceMatrix:
    def test_pool_matches_serial(self, baseline):
        result = CampaignRunner(backend=PoolBackend(workers=3)).run(GRID_30)
        assert result.rows == baseline
        assert sorted_rows_blob(result.rows) == sorted_rows_blob(baseline)

    @pytest.mark.parametrize("window", WINDOWS)
    @pytest.mark.parametrize("mode", CHAOS_MODES)
    def test_socket_matches_serial(self, baseline, window, mode):
        policy = worker_chaos(mode)
        servers = [WorkerServer(chaos=policy), WorkerServer(chaos=policy)]
        for server in servers:
            server.start()
        try:
            backend = socket_backend(
                [server.address for server in servers], window, mode
            )
            result = CampaignRunner(backend=backend).run(GRID_30)
            assert result.rows == baseline
            assert sorted_rows_blob(result.rows) == sorted_rows_blob(baseline)
            assert result.stats.executed == 30
            assert backend.last_stats["quarantined"] == 0
            assert backend.last_stats["degraded"] is False
            if mode == "off":
                # Without faults there are no requeues, so completions
                # must land exactly once and hash-sharding must spread
                # work over both workers.
                per_worker = backend.last_stats["per_worker"].values()
                assert all(count > 0 for count in per_worker)
                assert sum(per_worker) == 30
        finally:
            for server in servers:
                server.stop()

    @pytest.mark.parametrize("window", WINDOWS)
    def test_worker_death_mid_window_matches_serial(self, baseline, window):
        # The doomed worker dies on receiving its fourth job frame, with
        # up to a whole window of jobs in flight and unanswered (at
        # window 64, its entire share of the grid); every one of them
        # must be requeued and land exactly once.
        healthy = WorkerServer()
        doomed = WorkerServer(die_after_jobs=3)
        healthy.start()
        doomed.start()
        try:
            backend = socket_backend(
                [healthy.address, doomed.address], window, "off"
            )
            result = CampaignRunner(backend=backend).run(GRID_30)
            assert result.rows == baseline
            assert result.stats.executed == 30
            assert backend.last_stats["lost"] == 1
            assert backend.last_stats["requeued"] > 0
        finally:
            healthy.stop()
            doomed.stop()

    def test_experiment_front_door_matches_serial(self, baseline):
        # The front door runs on a backend built by name or handed in;
        # its rows must match the runtime-level baseline either way.
        exp = (
            Experiment(n=[5, 6, 7], budget=[0, 1, 2, 3, 4])
            .with_adversary(["silent", "noise"])
        )
        assert exp.run(backend="serial").rows == baseline
        servers = [WorkerServer(), WorkerServer()]
        for server in servers:
            server.start()
        try:
            with SocketBackend([server.address for server in servers],
                               job_timeout=60.0) as backend:
                campaign = exp.run(backend=backend)
            assert campaign.rows == baseline
            assert "socket" in (campaign.backend_summary or "")
        finally:
            for server in servers:
                server.stop()


class TestObservabilityEquivalence:
    """The live view and the metrics registry are observers: every cell
    of ``{serial, pool, socket} x {metrics+live on}`` must stay
    byte-identical to the plain serial baseline (PR 9's axis, extending
    the telemetry-sidecar identity already proven in ``test_obs.py``)."""

    def _run_live(self, backend):
        from repro.obs import metrics

        with metrics.activate(metrics.MetricsRegistry()):
            return CampaignRunner(backend=backend, live=True).run(GRID_30)

    def test_serial_live_metrics_match_serial(self, baseline):
        result = self._run_live(SerialBackend())
        assert sorted_rows_blob(result.rows) == sorted_rows_blob(baseline)

    def test_pool_live_metrics_match_serial(self, baseline):
        result = self._run_live(PoolBackend(workers=3))
        assert sorted_rows_blob(result.rows) == sorted_rows_blob(baseline)

    def test_socket_live_metrics_match_serial(self, baseline):
        servers = [WorkerServer(), WorkerServer()]
        for server in servers:
            server.start()
        try:
            backend = socket_backend(
                [server.address for server in servers], 8, "off"
            )
            result = self._run_live(backend)
            assert sorted_rows_blob(result.rows) == sorted_rows_blob(baseline)
        finally:
            for server in servers:
                server.stop()
