"""Chaos-hardening tests: fault injection, reconnect, quarantine,
degradation.

The load-bearing property mirrors the backend-equivalence suite: a
campaign run under a :class:`ChaosPolicy` -- frames dropped, delayed,
corrupted, connections reset, workers dying and rejoining -- must
complete with rows *byte-identical* to a serial run, because rows are a
pure function of their specs and chaos is only allowed to destroy
progress, never results.  The one sanctioned divergence is a poison
scenario (one that hard-kills its executor), which must be quarantined
as a structured failure row instead of taking the campaign down.
"""

import json
import multiprocessing
import os
import queue
import socket as socket_module
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.runtime import (
    BackendError,
    ChaosPolicy,
    ScenarioGrid,
    ScenarioSpec,
    SerialBackend,
    SocketBackend,
    WorkerServer,
    run_campaign,
)
from repro.runtime.backends.base import POISON_ENV, quarantine_row
from repro.runtime.backends.chaos import ACTIONS, ChaosInjected, ChaosSocket
from repro.runtime.backends.socketbackend import _isolated_executor, _Reconnector
from repro.runtime.backends.wire import (
    PROTOCOL_VERSION,
    WireError,
    recv_frame,
    send_frame,
)

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Small enough to keep chaos tests quick, big enough to shard + requeue.
GRID_12 = ScenarioGrid(n=[5, 6], budget=[0, 1, 2], adversary=["silent", "noise"])


def sorted_rows_blob(rows):
    ordered = sorted(rows, key=lambda row: row["scenario"])
    return json.dumps(ordered, sort_keys=True).encode("utf-8")


def free_port() -> int:
    probe = socket_module.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


class TestChaosPolicy:
    def test_parse_spec_grammar(self):
        policy = ChaosPolicy.parse(
            "drop=0.05,delay=0.2,delay_s=0.1,reset=0.02,seed=7"
        )
        assert policy.drop == 0.05
        assert policy.delay == 0.2
        assert policy.delay_s == 0.1
        assert policy.reset == 0.02
        assert policy.seed == 7
        assert policy.stall == policy.corrupt == policy.truncate == 0.0

    def test_parse_tolerates_spacing_and_empty_entries(self):
        assert ChaosPolicy.parse(" drop=0.1 , ,seed=3 ") == ChaosPolicy(
            drop=0.1, seed=3
        )

    def test_parse_rejects_unknown_keys_and_bad_values(self):
        with pytest.raises(ValueError, match="bad chaos spec"):
            ChaosPolicy.parse("dorp=0.1")
        with pytest.raises(ValueError, match="bad chaos spec"):
            ChaosPolicy.parse("drop")
        with pytest.raises(ValueError, match="bad chaos spec"):
            ChaosPolicy.parse("drop=lots")

    def test_probability_and_duration_validation(self):
        with pytest.raises(ValueError, match="outside"):
            ChaosPolicy(drop=1.5)
        with pytest.raises(ValueError, match="outside"):
            ChaosPolicy(reset=-0.1)
        with pytest.raises(ValueError, match=">= 0"):
            ChaosPolicy(delay_s=-1.0)
        with pytest.raises(ValueError, match="sum"):
            ChaosPolicy(drop=0.6, reset=0.6)

    def test_fault_rate_and_null(self):
        assert ChaosPolicy().is_null()
        policy = ChaosPolicy(drop=0.1, corrupt=0.2)
        assert not policy.is_null()
        assert policy.fault_rate() == pytest.approx(0.3)

    def test_describe_round_trips_non_defaults(self):
        assert ChaosPolicy().describe() == "null"
        policy = ChaosPolicy(drop=0.05, seed=11)
        assert ChaosPolicy.parse(policy.describe()) == policy

    def test_fault_stream_is_deterministic_per_seed_and_label(self):
        policy = ChaosPolicy(
            drop=0.2, delay=0.2, corrupt=0.2, reset=0.2, seed=42
        )

        def stream(label, count=64):
            rng = __import__("random").Random(f"{policy.seed}:{label}")
            return [policy.draw(rng) for _ in range(count)]

        assert stream("driver->a#g1") == stream("driver->a#g1")
        assert stream("driver->a#g1") != stream("driver->b#g1")
        drawn = {action for action in stream("driver->a#g1", 512) if action}
        assert drawn <= set(ACTIONS)
        assert drawn  # at 80% fault rate, 512 draws inject something


class ChaosPair:
    """A socketpair with one side chaos-wrapped, for send-path tests."""

    def __init__(self, policy, armed=True):
        self.raw_a, self.b = socket_module.socketpair()
        self.a = policy.wrap(self.raw_a, label="test", armed=armed)

    def close(self):
        self.a.close()
        self.b.close()


class TestChaosSocket:
    def test_disarmed_wrapper_passes_everything(self):
        pair = ChaosPair(ChaosPolicy(drop=1.0), armed=False)
        try:
            send_frame(pair.a, {"type": "ping"})
            assert recv_frame(pair.b) == {"type": "ping"}
            assert pair.a.counts == {}
            pair.a.arm()
            send_frame(pair.a, {"type": "ping"})
            pair.b.settimeout(0.2)
            with pytest.raises(socket_module.timeout):
                pair.b.recv(1)
            assert pair.a.counts == {"drop": 1}
        finally:
            pair.close()

    def test_drop_swallows_the_frame_silently(self):
        pair = ChaosPair(ChaosPolicy(drop=1.0))
        try:
            send_frame(pair.a, {"type": "job", "key": "ab" * 32})
            pair.b.settimeout(0.2)
            with pytest.raises(socket_module.timeout):
                pair.b.recv(1)
            assert pair.a.counts == {"drop": 1}
        finally:
            pair.close()

    def test_delay_still_delivers(self):
        pair = ChaosPair(ChaosPolicy(delay=1.0, delay_s=0.01))
        try:
            send_frame(pair.a, {"type": "pong"})
            assert recv_frame(pair.b) == {"type": "pong"}
            assert pair.a.counts == {"delay": 1}
        finally:
            pair.close()

    def test_corrupt_is_caught_by_the_frame_checksum(self):
        # The receiver must refuse the frame loudly -- never hand back a
        # decodable-but-wrong document.
        pair = ChaosPair(ChaosPolicy(corrupt=1.0))
        try:
            send_frame(pair.a, {"type": "result", "key": "cd" * 32,
                                "row": {"agreed": True}})
            with pytest.raises(WireError, match="checksum|undecodable"):
                recv_frame(pair.b)
            assert pair.a.counts == {"corrupt": 1}
        finally:
            pair.close()

    def test_reset_raises_into_the_dead_peer_path(self):
        pair = ChaosPair(ChaosPolicy(reset=1.0))
        try:
            with pytest.raises(ChaosInjected) as excinfo:
                send_frame(pair.a, {"type": "ping"})
            # The driver/worker recovery paths catch OSError subclasses.
            assert isinstance(excinfo.value, ConnectionResetError)
            assert pair.a.counts == {"reset": 1}
        finally:
            pair.close()

    def test_truncate_tears_the_frame_mid_body(self):
        pair = ChaosPair(ChaosPolicy(truncate=1.0))
        try:
            with pytest.raises(ChaosInjected):
                send_frame(pair.a, {"type": "ping"})
            assert pair.a.counts == {"truncate": 1}
            # The peer sees a torn stream: EOF mid-frame or a reset, never
            # a clean parse.
            pair.b.settimeout(1.0)
            with pytest.raises((WireError, OSError)):
                doc = recv_frame(pair.b)
                if doc is not None:  # pragma: no cover - must not happen
                    raise AssertionError(f"torn frame parsed as {doc!r}")
                raise WireError("EOF")
        finally:
            pair.close()

    def test_reads_pass_through_untouched(self):
        pair = ChaosPair(ChaosPolicy(drop=1.0))
        try:
            send_frame(pair.b, {"type": "pong"})
            assert recv_frame(pair.a) == {"type": "pong"}
        finally:
            pair.close()


# Row byte-identity under injected faults (both chaos points, every
# pipeline window) lives in ``test_equivalence_matrix.py``.


class TestReconnect:
    def test_late_starting_worker_joins_mid_campaign(self):
        # Worker B's address is dialed before B exists: the campaign must
        # start on A alone, then fold B in when it comes up.
        late_port = free_port()
        healthy = WorkerServer()
        healthy.start()
        late = WorkerServer(port=late_port)
        starter = threading.Timer(0.3, late.start)
        try:
            serial = run_campaign(GRID_12, backend=SerialBackend()).rows
            backend = SocketBackend(
                [healthy.address, f"127.0.0.1:{late_port}"],
                job_timeout=60.0, connect_retries=0,
                backoff=0.05, degrade_after=30.0,
            )
            starter.start()
            # Hold the campaign open long enough for B to join: pad the
            # grid with slow-ish scenarios via repetition of the grid.
            result = run_campaign(GRID_12, backend=backend)
            assert result.rows == serial
            assert backend.last_stats["unreachable"] == [
                f"127.0.0.1:{late_port}"
            ]
        finally:
            starter.cancel()
            healthy.stop()
            late.stop()

    def test_joined_worker_steals_queued_work(self):
        # A worker that joins mid-campaign starts with an empty queue; it
        # must take jobs still queued for its busy peer.
        class SlowWorker(WorkerServer):
            def _run_job(self, doc, telemetry):
                time.sleep(0.1)
                return super()._run_job(doc, telemetry)

        late_port = free_port()
        busy = SlowWorker()
        busy.start()
        late = WorkerServer(port=late_port)
        starter = threading.Timer(0.2, late.start)
        try:
            serial = run_campaign(GRID_12, backend=SerialBackend()).rows
            backend = SocketBackend(
                [busy.address, f"127.0.0.1:{late_port}"],
                job_timeout=60.0, connect_retries=0, backoff=0.05,
            )
            starter.start()
            result = run_campaign(GRID_12, backend=backend)
            assert result.rows == serial
            assert backend.last_stats["reconnects"] == 1
            per_worker = backend.last_stats["per_worker"]
            assert per_worker[f"127.0.0.1:{late_port}"] > 0, per_worker
        finally:
            starter.cancel()
            busy.stop()
            late.stop()

    def test_reconnect_disabled_leaves_down_addresses_down(self):
        late_port = free_port()
        healthy = WorkerServer()
        healthy.start()
        try:
            backend = SocketBackend(
                [healthy.address, f"127.0.0.1:{late_port}"],
                connect_retries=0, reconnect=False,
            )
            result = run_campaign(
                [ScenarioSpec(n=5, t=1, f=1)], backend=backend
            )
            assert result.stats.executed == 1
            assert backend.last_stats["reconnects"] == 0
        finally:
            healthy.stop()


class TestReconnectorStop:
    def test_stop_joins_the_thread_and_closes_a_late_link(self):
        # The redial is still inside _open_link when stop() is called; its
        # link arrives after that.  When stop() returns the thread must be
        # gone and the link closed, not left for nobody to drain.
        class Link:
            ident = "late#g1"
            closed = False

            def close(self):
                self.closed = True

        class Backend:
            backoff = 0.0
            connect_timeout = 5.0
            link = Link()
            dialing = threading.Event()

            def _open_link(self, address):
                self.dialing.set()
                reconnector._stop.wait()  # blocks until stop() is called
                return self.link

        backend = Backend()
        reconnector = _Reconnector(backend, queue.Queue())
        reconnector.mark_down("127.0.0.1:1")
        reconnector.start()
        assert backend.dialing.wait(5.0)
        reconnector.stop()
        assert not reconnector._thread.is_alive()
        assert backend.link.closed


class TestDegradation:
    def test_fleet_wipeout_degrades_to_local_and_matches_serial(self):
        # Every worker dies early; with degradation on, the campaign
        # finishes in isolated local subprocesses -- same bytes.
        servers = [WorkerServer(die_after_jobs=2), WorkerServer(die_after_jobs=2)]
        for server in servers:
            server.start()
        try:
            serial = run_campaign(GRID_12, backend=SerialBackend()).rows
            backend = SocketBackend(
                [server.address for server in servers],
                job_timeout=60.0, ping_grace=2.0,
                backoff=0.05, degrade_after=0.3,
            )
            result = run_campaign(GRID_12, backend=backend)
            assert result.rows == serial
            assert backend.last_stats["degraded"] is True
            assert backend.last_stats["lost"] == 2
            assert backend.last_stats["quarantined"] == 0
        finally:
            for server in servers:
                server.stop()

    def test_degrade_off_is_fail_stop(self):
        doomed = WorkerServer(die_after_jobs=0)
        doomed.start()
        try:
            backend = SocketBackend(
                [doomed.address], job_timeout=5.0, ping_grace=1.0,
                reconnect=False, degrade=False,
            )
            with pytest.raises(BackendError, match="died"):
                run_campaign(
                    [ScenarioSpec(n=5, t=1, f=1, seed=s) for s in range(3)],
                    backend=backend,
                )
        finally:
            doomed.stop()


class TestPoisonQuarantine:
    """End-to-end poison handling with *real* worker subprocesses.

    The poison gate hard-kills whatever process executes the marked
    scenario (``os._exit``), so these tests must never execute a poisoned
    key in the pytest process itself: serial baselines run before the env
    var is set, and every poisoned execution happens in a worker
    subprocess or a ``spawn`` child.
    """

    def spawn_worker(self, env=None):
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "worker",
             "--serve", "127.0.0.1:0"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            cwd=str(REPO_ROOT),
            env={**os.environ, "PYTHONPATH": "src", **(env or {})},
        )
        line = proc.stdout.readline()
        if "listening on" not in line:
            proc.kill()
            raise RuntimeError(f"worker failed to start: {line!r}")
        return proc, line.rsplit(" ", 1)[-1].strip()

    def test_quarantine_row_shape(self):
        row = quarantine_row("ab" * 32, {"w1#g1", "w2#g2"})
        assert row["error"] == "quarantined: crashed 2 distinct executor(s)"
        assert row["quarantine"]["scenario"] == "ab" * 32
        assert row["quarantine"]["executors"] == ["w1#g1", "w2#g2"]

    def test_poison_gate_kills_spawned_executors(self, monkeypatch):
        # The probe/degradation primitive: a spawn child inheriting the
        # poison env dies with exit code 113 and reports nothing.
        spec = ScenarioSpec(n=5, t=1, f=1)
        key = spec.scenario_hash()
        monkeypatch.setenv(POISON_ENV, key[:12])
        ctx = multiprocessing.get_context("spawn")
        receiver, sender = ctx.Pipe(duplex=False)
        proc = ctx.Process(
            target=_isolated_executor, args=(sender, [(key, spec)]),
        )
        proc.start()
        sender.close()
        proc.join(timeout=60.0)
        assert proc.exitcode == 113
        # The synchronous start marker survives the hard exit -- the
        # culprit is identifiable -- but no result ever arrives.
        messages = []
        while True:
            try:
                if not receiver.poll(0.1):
                    break
                messages.append(receiver.recv())
            except EOFError:
                break
        assert messages == [("start", 0, key)]

    def test_poison_scenario_is_quarantined_others_match_serial(
        self, monkeypatch
    ):
        # ISSUE acceptance, scaled for pytest: a chaos fleet where one
        # scenario kills every executor it touches.  The campaign must
        # complete, quarantining exactly that scenario; every other row
        # stays byte-identical to a poison-free serial run.
        specs = GRID_12.expand()
        poison = specs[4].scenario_hash()
        # Baseline first -- before the env var can reach this process's
        # own execute path.
        serial = run_campaign(specs, backend=SerialBackend()).rows
        monkeypatch.setenv(POISON_ENV, poison)

        workers = [self.spawn_worker() for _ in range(2)]
        try:
            backend = SocketBackend(
                [address for _, address in workers],
                job_timeout=5.0, ping_grace=2.0,
                backoff=0.05, degrade_after=0.5,
            )
            result = run_campaign(specs, backend=backend)
            assert result.stats.failed == 1
            assert result.stats.quarantined == 1
            rows_by_key = {spec.scenario_hash(): row
                           for spec, row in zip(specs, result.rows)}
            bad = rows_by_key.pop(poison)
            assert bad["quarantine"]["scenario"] == poison
            assert len(bad["quarantine"]["executors"]) >= 2
            clean_serial = [row for row in serial if row["scenario"] != poison]
            assert (sorted_rows_blob(rows_by_key.values())
                    == sorted_rows_blob(clean_serial))
            assert backend.last_stats["quarantined"] == 1
            assert backend.last_stats["probed"] >= 1
        finally:
            for proc, _ in workers:
                proc.kill()
                proc.wait()

    def test_innocent_scenario_on_dying_workers_is_not_quarantined(self):
        # Repeated worker deaths alone must not convict a scenario: the
        # isolated probe runs it cleanly and produces its *real* row.
        servers = [WorkerServer(die_after_jobs=0), WorkerServer(die_after_jobs=0)]
        for server in servers:
            server.start()
        spec = ScenarioSpec(n=5, t=1, f=1)
        try:
            serial = run_campaign([spec], backend=SerialBackend()).rows
            backend = SocketBackend(
                [server.address for server in servers],
                job_timeout=5.0, ping_grace=1.0,
                backoff=0.05, degrade_after=0.3, quarantine_after=2,
            )
            result = run_campaign([spec], backend=backend)
            assert result.rows == serial
            assert result.stats.failed == 0
            assert backend.last_stats["quarantined"] == 0
        finally:
            for server in servers:
                server.stop()


class TestBatchedRequeue:
    """Requeue semantics with a full pipeline window: a worker dying
    while it holds a window of unanswered jobs must cost progress, never
    results.

    ``die_after_jobs`` kills at frame *accept* (covered by the
    equivalence matrix); the poison gate kills at the job's *execution*,
    so the jobs ahead of the poison key have already been answered and
    every job behind it is still in flight when the process exits.  The
    driver must requeue all of those and every job must land exactly
    once.  The class and test keep their pre-v7 names, from when the
    in-flight jobs rode one batch frame.
    """

    def spawn_worker(self):
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "worker",
             "--serve", "127.0.0.1:0"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, cwd=str(REPO_ROOT),
            env={**os.environ, "PYTHONPATH": "src"},
        )
        line = proc.stdout.readline()
        if "listening on" not in line:
            proc.kill()
            raise RuntimeError(f"worker failed to start: {line!r}")
        return proc, line.rsplit(" ", 1)[-1].strip()

    def test_poison_inside_batch_lands_every_job_exactly_once(
        self, monkeypatch
    ):
        # GRID_12 with one poison key and window=64: every worker's whole
        # share of the grid is in flight at once, poison among it.
        specs = GRID_12.expand()
        poison = specs[4].scenario_hash()
        # Baseline before the env var can reach this process.
        serial = run_campaign(specs, backend=SerialBackend()).rows
        monkeypatch.setenv(POISON_ENV, poison)
        workers = [self.spawn_worker() for _ in range(2)]
        try:
            backend = SocketBackend(
                [address for _, address in workers],
                job_timeout=5.0, ping_grace=2.0,
                backoff=0.05, degrade_after=0.5, window=64,
            )
            result = run_campaign(specs, backend=backend)
        finally:
            for proc, _ in workers:
                proc.kill()
                proc.wait()
        # No losses: every scenario resolved, exactly one as quarantine.
        assert result.stats.executed == len(specs) - 1
        assert result.stats.failed == result.stats.quarantined == 1
        rows_by_key = {spec.scenario_hash(): row
                       for spec, row in zip(specs, result.rows)}
        assert len(rows_by_key) == len(specs)  # one row per key
        bad = rows_by_key.pop(poison)
        assert bad["quarantine"]["scenario"] == poison
        # The poison key crashed at least one real worker before being
        # convicted by the isolated probe.
        assert len(bad["quarantine"]["executors"]) >= 2
        clean_serial = [row for row in serial if row["scenario"] != poison]
        assert (sorted_rows_blob(rows_by_key.values())
                == sorted_rows_blob(clean_serial))
        # The jobs in flight behind the poison key were requeued...
        assert backend.last_stats["requeued"] > 0
        assert backend.last_stats["lost"] >= 1
        # ...and re-delivery never double-yielded a key (duplicates are
        # detected and discarded at the driver).
        assert backend.last_stats["quarantined"] == 1


class TestCalibrationPing:
    def test_non_pong_frames_are_tolerated_and_logged(self):
        # An over-eager peer streaming frames before answering the
        # calibration ping must not kill the session or mistime the RTT.
        listener = socket_module.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        address = "127.0.0.1:%d" % listener.getsockname()[1]

        def serve_once():
            conn, _ = listener.accept()
            try:
                assert recv_frame(conn)["type"] == "hello"
                send_frame(conn, {"type": "welcome",
                                  "protocol": PROTOCOL_VERSION,
                                  "worker_pid": 1})
                assert recv_frame(conn)["type"] == "ping"
                send_frame(conn, {"type": "status", "note": "over-eager"})
                send_frame(conn, {"type": "pong"})
                recv_frame(conn)  # wait for the driver to hang up
            finally:
                conn.close()

        thread = threading.Thread(target=serve_once, daemon=True)
        thread.start()
        backend = SocketBackend([address])
        try:
            sock, rtt = backend._connect(address)
            assert rtt is not None and rtt > 0
            sock.close()
        finally:
            listener.close()
            thread.join(timeout=5.0)


class TestWorkerChaosCli:
    def test_worker_chaos_flag_round_trip(self):
        from repro.experiments.cli import main
        import io
        import contextlib

        # A bad spec is a usage error, reported cleanly.
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            assert main(["worker", "--serve", "127.0.0.1:0",
                         "--chaos", "dorp=1"]) == 2
        assert "chaos" in stderr.getvalue()
