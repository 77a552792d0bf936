"""Execution-backend tests: equivalence, wire protocol, worker death,
store locking, and the store-maintenance CLI.

The load-bearing property is backend *equivalence*: serial, pool, and
socket campaigns over the same grid must produce byte-identical rows --
including when a socket worker dies mid-campaign and its scenarios are
requeued -- because every row is a pure function of its scenario's
content hash.
"""

import json
import logging
import os
import queue
import socket as socket_module
import threading
import time
import zlib

import pytest

from repro.experiments.cli import main
from repro.runtime import (
    BackendError,
    CampaignRunner,
    PoolBackend,
    ResultStore,
    ScenarioGrid,
    ScenarioSpec,
    SerialBackend,
    SocketBackend,
    StoreLockError,
    WorkerServer,
    execute_spec,
    make_backend,
)
from repro.runtime.backends import base as backends_base
from repro.runtime.backends import socketbackend as socketbackend_module
from repro.runtime.backends.socketbackend import _shard
from repro.runtime.backends.wire import (
    PROTOCOL_VERSION,
    FrameReceiver,
    WireError,
    parse_address,
    recv_frame,
    send_frame,
)

# The equivalence grid the ISSUE names: 30 scenarios across sizes,
# budgets, and adversaries.
GRID_30 = ScenarioGrid(
    n=[5, 6, 7], budget=[0, 1, 2, 3, 4], adversary=["silent", "noise"]
)


def sorted_rows_blob(rows):
    """Canonical bytes for row-set comparison (order-insensitive)."""
    ordered = sorted(rows, key=lambda row: row["scenario"])
    return json.dumps(ordered, sort_keys=True).encode("utf-8")


def raw_frame(body: bytes) -> bytes:
    """Hand-rolled v4 frame: 8-byte (length, crc32) header + body."""
    return (len(body).to_bytes(4, "big")
            + zlib.crc32(body).to_bytes(4, "big") + body)


@pytest.fixture
def worker_pair():
    """Two live in-process TCP workers; stopped on teardown."""
    servers = [WorkerServer(), WorkerServer()]
    for server in servers:
        server.start()
    yield servers
    for server in servers:
        server.stop()


class TestWire:
    def roundtrip(self, doc):
        a, b = socket_module.socketpair()
        try:
            send_frame(a, doc)
            return recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_frame_roundtrip(self):
        doc = {"type": "job", "key": "ab" * 32, "spec": {"n": 5, "arms": ["x"]}}
        assert self.roundtrip(doc) == doc

    def test_eof_at_boundary_is_none_mid_frame_raises(self):
        a, b = socket_module.socketpair()
        a.close()
        assert recv_frame(b) is None
        b.close()
        a, b = socket_module.socketpair()
        a.sendall(b"\x00\x00")  # torn length prefix
        a.close()
        with pytest.raises(WireError, match="mid-frame"):
            recv_frame(b)
        b.close()

    def test_garbage_body_raises(self):
        a, b = socket_module.socketpair()
        a.sendall(raw_frame(b"not"))
        with pytest.raises(WireError, match="undecodable"):
            recv_frame(b)
        a.close()
        b.close()

    def test_untyped_object_raises(self):
        a, b = socket_module.socketpair()
        a.sendall(raw_frame(b"[]"))
        with pytest.raises(WireError, match="typed"):
            recv_frame(b)
        a.close()
        b.close()

    def test_checksum_mismatch_raises(self):
        # A corrupted body whose length still matches the header must be
        # refused by the crc32 check, never parsed as a (possibly valid)
        # different document.
        body = b'{"type":"pong"}'
        header = (len(body).to_bytes(4, "big")
                  + (zlib.crc32(body) ^ 0xFF).to_bytes(4, "big"))
        a, b = socket_module.socketpair()
        a.sendall(header + body)
        with pytest.raises(WireError, match="checksum mismatch"):
            recv_frame(b)
        a.close()
        b.close()

    def test_flipped_body_byte_is_caught(self):
        # End-to-end: a single bit flip anywhere in the body trips the
        # checksum even though the JSON may still decode.
        doc = {"type": "result", "key": "ab" * 32, "ok": True,
               "row": {"agreed": True}}
        body = json.dumps(doc, sort_keys=True,
                          separators=(",", ":")).encode("utf-8")
        frame = bytearray(raw_frame(body))
        frame[8 + 10] ^= 0x20  # flip a byte mid-body
        a, b = socket_module.socketpair()
        a.sendall(bytes(frame))
        with pytest.raises(WireError, match="checksum"):
            recv_frame(b)
        a.close()
        b.close()

    def test_parse_address(self):
        assert parse_address("127.0.0.1:7501") == ("127.0.0.1", 7501)
        assert parse_address("host.example:0") == ("host.example", 0)
        for bad in ("nohost", ":7501", "host:notaport"):
            with pytest.raises(ValueError):
                parse_address(bad)


class TestFrameReceiver:
    """The resumable reader the socket driver's heartbeat path relies on."""

    def test_timeout_mid_frame_resumes_without_desync(self):
        # A result frame stalls mid-body exactly as job_timeout expires:
        # the receiver must keep the partial bytes and complete the same
        # frame on the next call, not misparse body bytes as a header.
        a, b = socket_module.socketpair()
        try:
            doc = {"type": "result", "key": "ff" * 32, "ok": True,
                   "row": {"agreed": True}}
            body = json.dumps(doc, sort_keys=True,
                              separators=(",", ":")).encode("utf-8")
            frame = raw_frame(body)
            receiver = FrameReceiver(b)
            b.settimeout(0.05)
            a.sendall(frame[:11])  # 8-byte header + 3 body bytes
            with pytest.raises(socket_module.timeout):
                receiver.recv()
            with pytest.raises(socket_module.timeout):
                receiver.recv()  # still stalled; buffer still intact
            a.sendall(frame[11:])
            assert receiver.recv() == doc
            # and the stream position is exact: a follow-up frame parses
            send_frame(a, {"type": "pong"})
            assert receiver.recv() == {"type": "pong"}
        finally:
            a.close()
            b.close()

    def test_timeout_mid_header_resumes(self):
        a, b = socket_module.socketpair()
        try:
            receiver = FrameReceiver(b)
            b.settimeout(0.05)
            frame = raw_frame(b"{}")
            a.sendall(frame[:2])  # a fragment of the 8-byte header
            with pytest.raises(socket_module.timeout):
                receiver.recv()
            a.sendall(frame[2:])
            with pytest.raises(WireError, match="typed"):
                receiver.recv()  # untyped object, but framing stayed true
        finally:
            a.close()
            b.close()

    def test_eof_semantics_match_recv_frame(self):
        a, b = socket_module.socketpair()
        a.close()
        assert FrameReceiver(b).recv() is None
        b.close()
        a, b = socket_module.socketpair()
        a.sendall(b"\x00\x00")
        a.close()
        with pytest.raises(WireError, match="mid-frame"):
            FrameReceiver(b).recv()
        b.close()

    def test_oversized_length_raises(self):
        a, b = socket_module.socketpair()
        a.sendall(b"\xff\xff\xff\xff" + b"\x00" * 4)  # full 8-byte header
        with pytest.raises(WireError, match="exceeds cap"):
            FrameReceiver(b).recv()
        a.close()
        b.close()


class TestSpecWireRoundTrip:
    def test_from_dict_preserves_content_hash(self):
        spec = ScenarioSpec(
            n=7, t=2, f=2, budget=3, mode="authenticated",
            adversary="stalling", generator="random", seed=4,
            faulty=(1, 5), inputs=(0, 1, 0, 1, 0, 1, 0),
        )
        # JSON round trip is exactly what the socket backend does.
        doc = json.loads(json.dumps(spec.to_dict()))
        rebuilt = ScenarioSpec.from_dict(doc)
        assert rebuilt == spec
        assert rebuilt.scenario_hash() == spec.scenario_hash()

    def test_tuple_inputs_survive_the_round_trip(self):
        """JSON turns tuple proposals into lists; ``from_dict`` turns
        them back at every depth, so a worker decides on the same
        hashable values the driver's spec carries."""
        spec = ScenarioSpec(
            n=5, t=1, f=1, inputs=(("block", 7),) * 4 + ((1, (2, 3)),),
        )
        rebuilt = ScenarioSpec.from_dict(
            json.loads(json.dumps(spec.to_dict()))
        )
        assert rebuilt == spec
        assert rebuilt.scenario_hash() == spec.scenario_hash()
        assert execute_spec(rebuilt) == execute_spec(spec)

    def test_validate_refuses_inputs_json_cannot_encode(self):
        spec = ScenarioSpec(n=5, t=1, f=1, inputs=(b"bytes",) * 5)
        with pytest.raises(ValueError, match="inputs"):
            spec.validate()

    def test_from_dict_rejects_unknown_fields(self):
        doc = ScenarioSpec(n=5, t=1, f=1).to_dict()
        doc["surprise"] = 1
        with pytest.raises(ValueError, match="unknown scenario fields"):
            ScenarioSpec.from_dict(doc)

    def test_from_dict_validates(self):
        doc = ScenarioSpec(n=5, t=1, f=1).to_dict()
        doc["f"] = 4  # f > t
        with pytest.raises(ValueError):
            ScenarioSpec.from_dict(doc)


class TestBackendEquivalence:
    """Requeue/death/error equivalence paths.  The full byte-identity
    matrix (backends x pipeline windows, worker death) lives in
    ``test_equivalence_matrix.py``."""

    def test_worker_death_mid_campaign_requeues_and_matches(self):
        healthy = WorkerServer()
        doomed = WorkerServer(die_after_jobs=3)
        healthy.start()
        doomed.start()
        try:
            serial = CampaignRunner(backend=SerialBackend()).run(GRID_30)
            backend = SocketBackend(
                [healthy.address, doomed.address],
                job_timeout=60.0, ping_grace=2.0,
            )
            survived = CampaignRunner(backend=backend).run(GRID_30)
            assert survived.rows == serial.rows
            assert survived.stats.executed == 30
            assert backend.last_stats["lost"] == 1
            assert backend.last_stats["requeued"] > 0
        finally:
            healthy.stop()
            doomed.stop()

    def test_two_workers_dying_still_completes_and_matches(self):
        # Multiple near-simultaneous deaths stress the requeue path: a
        # scenario requeued onto a worker whose own death is queued but
        # not yet processed must be salvaged when that death lands, not
        # stranded in a queue no thread reads (which would hang forever).
        healthy = WorkerServer()
        doomed = [WorkerServer(die_after_jobs=1), WorkerServer(die_after_jobs=1)]
        for server in (healthy, *doomed):
            server.start()
        try:
            serial = CampaignRunner(backend=SerialBackend()).run(GRID_30)
            backend = SocketBackend(
                [healthy.address] + [server.address for server in doomed],
                job_timeout=60.0, ping_grace=2.0,
            )
            survived = CampaignRunner(backend=backend).run(GRID_30)
            assert survived.rows == serial.rows
            assert backend.last_stats["lost"] == 2
        finally:
            for server in (healthy, *doomed):
                server.stop()

    def test_all_workers_dead_aborts(self, tmp_path):
        # Losing the whole fleet stops the campaign, and the store keeps
        # every row that finished first, so a rerun resumes from there.
        specs = GRID_30.expand()[:8]
        serial = CampaignRunner(backend=SerialBackend()).run(specs).rows
        serial_by_key = {spec.scenario_hash(): row
                         for spec, row in zip(specs, serial)}
        with ResultStore(tmp_path / "resume.jsonl") as store:
            doomed = WorkerServer(die_after_jobs=3)
            doomed.start()
            try:
                backend = SocketBackend(
                    [doomed.address], job_timeout=5.0, ping_grace=1.0,
                )
                with pytest.raises(BackendError, match="died"):
                    CampaignRunner(store=store, backend=backend).run(specs)
            finally:
                doomed.stop()
            stored = len(store)
            assert 0 < stored < len(specs)
            assert all(row == serial_by_key[key] for key, row in store.items())
            healthy = WorkerServer()
            healthy.start()
            try:
                rerun = CampaignRunner(
                    store=store, backend=SocketBackend([healthy.address]),
                ).run(specs)
            finally:
                healthy.stop()
        assert rerun.stats.executed == len(specs) - stored
        assert rerun.stats.cached == stored
        assert rerun.rows == serial

    def test_silent_worker_dies_after_one_ping(self):
        # A scripted worker completes the handshake and the calibration
        # ping, then swallows every frame.  Its jobs outlast job_timeout,
        # the heartbeat ping goes unanswered, and the link is declared
        # dead; its jobs finish on the real worker.
        specs = GRID_30.expand()[:8]
        listener = socket_module.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        silent_address = "127.0.0.1:%d" % listener.getsockname()[1]
        assert any(_shard(spec.scenario_hash(), 2) == 0 for spec in specs)
        swallowed = []

        def swallow():
            conn, _ = listener.accept()
            try:
                assert recv_frame(conn)["type"] == "hello"
                send_frame(conn, {"type": "welcome",
                                  "protocol": PROTOCOL_VERSION,
                                  "worker_pid": 1})
                assert recv_frame(conn)["type"] == "ping"
                send_frame(conn, {"type": "pong"})
                while True:
                    doc = recv_frame(conn)
                    if doc is None:
                        return
                    swallowed.append(doc["type"])
            finally:
                conn.close()

        thread = threading.Thread(target=swallow, daemon=True)
        thread.start()
        real = WorkerServer()
        real.start()
        try:
            backend = SocketBackend([silent_address, real.address],
                                    job_timeout=0.5, ping_grace=0.5)
            result = CampaignRunner(backend=backend).run(specs)
        finally:
            real.stop()
            listener.close()
            thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert result.rows == CampaignRunner().run(specs).rows
        assert backend.last_stats["lost"] == 1
        assert "job" in swallowed
        assert swallowed.count("ping") == 1

    def test_slow_job_on_a_live_worker_is_not_resent(self):
        # The worker's first job outlasts job_timeout five times over
        # while its reader keeps answering pings: the worker is alive, so
        # the driver waits for the job, sends nothing twice and loses no
        # link.
        class SlowFirstJob(WorkerServer):
            slept = False

            def _run_job(self, doc, telemetry):
                if not self.slept:
                    self.slept = True
                    time.sleep(2.0)
                return super()._run_job(doc, telemetry)

        specs = GRID_30.expand()[:4]
        server = SlowFirstJob()
        server.start()
        try:
            backend = SocketBackend([server.address], job_timeout=0.4,
                                    ping_grace=2.0)
            result = CampaignRunner(backend=backend).run(specs)
        finally:
            server.stop()
        assert backend.last_stats["lost"] == 0
        assert server.jobs_done == len(specs)
        assert result.rows == CampaignRunner().run(specs).rows

    def test_socket_results_feed_the_store_cache(self, worker_pair, tmp_path):
        specs = GRID_30.expand()[:6]
        store = ResultStore(tmp_path / "socket.jsonl")
        backend = SocketBackend([server.address for server in worker_pair])
        first = CampaignRunner(store=store, backend=backend).run(specs)
        assert first.stats.executed == 6
        rerun = CampaignRunner(store=store, backend=backend).run(specs)
        assert rerun.stats.executed == 0
        assert rerun.stats.cached == 6
        assert rerun.rows == first.rows

    def test_failed_scenarios_become_error_rows_over_the_wire(self, worker_pair):
        bad = ScenarioSpec(n=5, t=1, f=1, budget=10_000)  # generation raises
        backend = SocketBackend([worker_pair[0].address])
        result = CampaignRunner(backend=backend).run([bad])
        assert result.stats.failed == 1
        assert "error" in result.rows[0]
        assert "exceeds capacity" in result.rows[0]["error"]

    def test_fast_worker_steals_a_slow_workers_share(self):
        # A worker that takes 200 ms per job next to one that takes a
        # few: once the fast worker's hash share is done it must take
        # over the slow worker's queued jobs, and rows still match serial.
        class SlowWorker(WorkerServer):
            def _run_job(self, doc, telemetry):
                time.sleep(0.2)
                return super()._run_job(doc, telemetry)

        specs = GRID_30.expand()[:16]
        fast, slow = WorkerServer(), SlowWorker()
        fast.start()
        slow.start()
        try:
            backend = SocketBackend([fast.address, slow.address], window=1,
                                    job_timeout=60.0)
            result = CampaignRunner(backend=backend).run(specs)
            assert result.rows == CampaignRunner().run(specs).rows
            slow_share = sum(
                _shard(spec.scenario_hash(), 2) == 1 for spec in specs
            )
            per_worker = backend.last_stats["per_worker"]
            assert slow_share >= 4
            assert per_worker[slow.address] < slow_share, per_worker
            assert sum(per_worker.values()) == len(specs)
        finally:
            fast.stop()
            slow.stop()


class TestExperimentEquivalence:
    """Campaigns built through the v1 ``Experiment`` front door are
    byte-identical to the runtime-level ``CampaignRunner`` path on the
    30-scenario grid, over every backend."""

    def experiment(self):
        from repro.api import Experiment

        return (
            Experiment(n=[5, 6, 7], budget=[0, 1, 2, 3, 4])
            .with_adversary(["silent", "noise"])
        )

    def test_compile_matches_the_legacy_grid(self):
        assert self.experiment().compile().expand() == GRID_30.expand()

    def test_every_new_row_carries_schema_1(self, tmp_path):
        from repro.runtime import SCHEMA_VERSION

        store = ResultStore(tmp_path / "schema.jsonl")
        campaign = self.experiment().run(store=store)
        assert all(row["schema"] == SCHEMA_VERSION == 1
                   for row in campaign.rows)
        # ... including as persisted on disk.
        for line in (tmp_path / "schema.jsonl").read_text().splitlines():
            assert json.loads(line)["row"]["schema"] == 1

    def test_schema_less_legacy_store_rows_still_load(self, tmp_path):
        spec = GRID_30.expand()[0]
        fresh = CampaignRunner().run([spec]).rows[0]
        legacy_row = {k: v for k, v in fresh.items() if k != "schema"}
        store = ResultStore(tmp_path / "legacy.jsonl")
        store.put(spec.scenario_hash(), legacy_row)
        store.close()
        reloaded = ResultStore(tmp_path / "legacy.jsonl")
        served = CampaignRunner(store=reloaded).run([spec])
        assert served.stats.cached == 1
        assert served.rows[0] == legacy_row


class TestSocketBackendSetup:
    def test_version_mismatch_refused(self, worker_pair, monkeypatch):
        monkeypatch.setattr(socketbackend_module, "PROTOCOL_VERSION", 999)
        backend = SocketBackend([worker_pair[0].address])
        with pytest.raises(BackendError, match="version mismatch"):
            backend._connect(worker_pair[0].address)

    def test_unreachable_worker_tolerated_when_one_connects(self, worker_pair):
        # A closed port: bind-and-release to find one nobody listens on.
        probe = socket_module.socket()
        probe.bind(("127.0.0.1", 0))
        dead_address = "127.0.0.1:%d" % probe.getsockname()[1]
        probe.close()
        backend = SocketBackend(
            [worker_pair[0].address, dead_address], connect_timeout=2.0
        )
        result = CampaignRunner(backend=backend).run(
            [ScenarioSpec(n=5, t=1, f=1)]
        )
        assert result.stats.executed == 1
        assert backend.last_stats["unreachable"] == [dead_address]
        strict = SocketBackend(
            [worker_pair[0].address, dead_address],
            connect_timeout=2.0, require_all=True, connect_retries=0,
        )
        with pytest.raises(BackendError, match="unreachable"):
            CampaignRunner(backend=strict).run(
                [ScenarioSpec(n=5, t=1, f=1, seed=1)]
            )

    def test_no_workers_reachable_raises(self):
        probe = socket_module.socket()
        probe.bind(("127.0.0.1", 0))
        dead_address = "127.0.0.1:%d" % probe.getsockname()[1]
        probe.close()
        backend = SocketBackend(
            [dead_address], connect_timeout=1.0, connect_retries=0
        )
        with pytest.raises(BackendError, match="no socket workers reachable"):
            CampaignRunner(backend=backend).run([ScenarioSpec(n=5, t=1, f=1)])

    def test_silent_connection_is_dropped(self, monkeypatch):
        # A peer that connects but never speaks (port scan, hung driver)
        # must not pin a worker thread forever.
        monkeypatch.setattr(WorkerServer, "HANDSHAKE_TIMEOUT", 0.3)
        server = WorkerServer()
        server.start()
        sock = socket_module.create_connection(("127.0.0.1", server.port))
        try:
            sock.settimeout(5.0)
            assert sock.recv(1) == b""  # worker hung up on us
        finally:
            sock.close()
            server.stop()

    def test_v6_hello_is_refused_at_handshake(self, worker_pair):
        # Wire v7 replaced every job/result frame: a v6 driver must be
        # turned away at hello, before it can send a single job.
        host, port = parse_address(worker_pair[0].address)
        with socket_module.create_connection((host, port), timeout=5.0) as sock:
            send_frame(sock, {"type": "hello", "protocol": 6,
                              "driver_pid": os.getpid()})
            doc = recv_frame(sock)
            assert recv_frame(sock) is None  # and the session is closed
        assert doc["type"] == "error"
        assert "version mismatch" in doc["reason"]

    def test_stop_joins_every_thread_of_an_open_session(self, caplog):
        # A driver that handshakes and then goes quiet (no bye) leaves
        # the session's reader blocked in recv: stop() must shut the
        # session down and join every thread the server started.
        before = set(threading.enumerate())
        with caplog.at_level(logging.INFO, logger="repro.worker"):
            server = WorkerServer()
            server.start()
            sock = socket_module.create_connection(("127.0.0.1", server.port))
            try:
                send_frame(sock, {"type": "hello", "protocol": PROTOCOL_VERSION,
                                  "driver_pid": os.getpid()})
                assert recv_frame(sock)["type"] == "welcome"
                server.stop()
                leftover = [
                    thread.name for thread in threading.enumerate()
                    if thread not in before and thread.name.startswith("worker-")
                ]
            finally:
                sock.close()
        assert leftover == []
        assert "disconnect peer=" in caplog.text

    def test_transient_accept_error_does_not_deafen_the_worker(self):
        # ECONNABORTED from accept(2) (peer reset between SYN and accept)
        # must not exit the accept loop: the worker has to keep serving.
        server = WorkerServer()
        server.start()
        try:
            real = server._listener

            class FlakyListener:
                def __init__(self):
                    self.tripped = False

                def accept(self):
                    if not self.tripped:
                        self.tripped = True
                        raise OSError(103, "Software caused connection abort")
                    return real.accept()

                def shutdown(self, how):
                    real.shutdown(how)

                def close(self):
                    real.close()

            flaky = FlakyListener()
            server._listener = flaky
            # Kick the loop past its pre-swap blocking accept, then past
            # the injected failure: the second campaign must still serve.
            for seed in range(2):
                backend = SocketBackend([server.address], connect_timeout=5.0)
                result = CampaignRunner(backend=backend).run(
                    [ScenarioSpec(n=5, t=1, f=1, seed=seed)]
                )
                assert result.stats.executed == 1
            assert flaky.tripped
        finally:
            server.stop()

    def test_shard_is_deterministic_and_total(self):
        keys = [ScenarioSpec(n=5, t=1, f=1, seed=s).scenario_hash()
                for s in range(50)]
        for workers in (1, 2, 3):
            shards = [_shard(key, workers) for key in keys]
            assert shards == [_shard(key, workers) for key in keys]
            assert set(shards) <= set(range(workers))

    def test_take_steals_from_the_longest_peer_queue_only_when_idle(self):
        link, short, long_ = (
            socketbackend_module._WorkerLink(f"h:{port}", None)
            for port in (1, 2, 3)
        )
        link.enqueue("own", None)
        short.enqueue("s1", None)
        long_.enqueue("l1", None)
        long_.enqueue("l2", None)
        peers = [link, short, long_]
        assert link.take(peers, block=False)[0] == "own"
        assert link.take(peers, block=False)[0] == "l1"
        assert [link.take(peers, block=False)[0] for _ in range(2)] in (
            ["s1", "l2"], ["l2", "s1"],
        )
        with pytest.raises(queue.Empty):
            link.take(peers, block=False)
        # A peer's sentinel stays with the peer: its driver must see it.
        short.jobs.put(socketbackend_module._DONE)
        with pytest.raises(queue.Empty):
            link.take(peers, block=False)
        assert short.jobs.get_nowait() is socketbackend_module._DONE

    def test_take_does_not_steal_while_the_link_has_jobs_in_flight(self):
        link, peer = (
            socketbackend_module._WorkerLink(f"h:{port}", None)
            for port in (1, 2)
        )
        peer.enqueue("p1", None)
        peer.enqueue("p2", None)
        peers = [link, peer]
        # Work in flight: the link is not starving, the peer keeps its share.
        link.inflight_jobs = 1
        with pytest.raises(queue.Empty):
            link.take(peers, block=False)
        assert peer.jobs.qsize() == 2
        # Nothing in flight: the link steals one job from the peer.
        link.inflight_jobs = 0
        assert link.take(peers, block=False)[0] == "p1"
        assert peer.jobs.qsize() == 1

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            SocketBackend([])
        with pytest.raises(ValueError):
            SocketBackend(["h:1"], job_timeout=0)
        with pytest.raises(ValueError):
            SocketBackend(["h:1"], window=0)


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


class TestMakeBackend:
    def test_auto_resolution(self):
        assert isinstance(make_backend(workers=1), SerialBackend)
        assert isinstance(make_backend(workers=4), PoolBackend)
        assert isinstance(
            make_backend(connect=["127.0.0.1:7501"]), SocketBackend
        )
        assert isinstance(make_backend("serial", workers=8), SerialBackend)

    def test_socket_requires_connect_and_unknown_raises(self):
        with pytest.raises(ValueError, match="--connect"):
            make_backend("socket")
        with pytest.raises(ValueError, match="unknown backend"):
            make_backend("carrier-pigeon")

    def test_resilience_knobs_reach_the_socket_backend(self):
        backend = make_backend(
            connect=["127.0.0.1:7501"], job_timeout=30.0, require_all=True,
            connect_retries=5,
        )
        assert isinstance(backend, SocketBackend)
        assert backend.job_timeout == 30.0
        assert backend.require_all is True
        assert backend.connect_retries == 5

    def test_worker_count_below_one_is_refused(self):
        # Not silently rounded up to a 2-process pool.
        with pytest.raises(ValueError, match="workers must be >= 1"):
            make_backend(workers=0)
        with pytest.raises(ValueError, match="workers must be >= 1"):
            make_backend("pool", workers=-3)

    def test_connect_with_local_backend_is_refused(self):
        # A typo'd --backend must not silently run the campaign locally
        # while the connected fleet sits idle.
        for name in ("serial", "pool"):
            with pytest.raises(ValueError, match="socket backend"):
                make_backend(name, connect=["host-a:7501"])


class TestStoreLock:
    def test_second_writer_is_refused_until_release(self, tmp_path):
        path = tmp_path / "store.jsonl"
        first, second = ResultStore(path), ResultStore(path)
        first.acquire_lock()
        with pytest.raises(StoreLockError, match="locked by"):
            second.acquire_lock()
        first.release_lock()
        second.acquire_lock()  # now free
        second.release_lock()
        # The lockfile persists by design (unlinking would reopen the
        # unlink-vs-lock race); only the kernel lock comes and goes.
        assert first.lock_path.exists()

    def test_stale_lock_of_dead_process_is_reclaimed(self, tmp_path):
        store = ResultStore(tmp_path / "store.jsonl")
        store.lock_path.parent.mkdir(parents=True, exist_ok=True)
        store.lock_path.write_text("99999999\n")  # no such pid
        store.acquire_lock()
        assert store.lock_path.read_text().strip() == str(os.getpid())
        store.release_lock()

    def test_garbage_lockfile_is_reclaimed(self, tmp_path):
        store = ResultStore(tmp_path / "store.jsonl")
        store.lock_path.parent.mkdir(parents=True, exist_ok=True)
        store.lock_path.write_text("not-a-pid\n")
        store.acquire_lock()
        store.release_lock()

    def test_runner_holds_lock_during_execution(self, tmp_path):
        path = tmp_path / "store.jsonl"
        specs = [ScenarioSpec(n=5, t=1, f=1, seed=s) for s in range(2)]
        holder = ResultStore(path)
        holder.acquire_lock()
        # A second campaign against the locked store fails fast...
        with pytest.raises(StoreLockError):
            CampaignRunner(store=ResultStore(path)).run(specs)
        holder.release_lock()
        # ...and succeeds once the lock is free, releasing it afterwards
        # (provably: a fresh writer can take it again).
        result = CampaignRunner(store=ResultStore(path)).run(specs)
        assert result.stats.executed == 2
        reacquire = ResultStore(path)
        reacquire.acquire_lock()
        reacquire.release_lock()

    def test_fully_cached_run_needs_no_lock(self, tmp_path):
        path = tmp_path / "store.jsonl"
        specs = [ScenarioSpec(n=5, t=1, f=1)]
        CampaignRunner(store=ResultStore(path)).run(specs)
        holder = ResultStore(path)
        holder.acquire_lock()
        # Nothing pending -> read-only -> no lock contention.
        cached = CampaignRunner(store=ResultStore(path)).run(specs)
        assert cached.stats.cached == 1
        holder.release_lock()

    def test_run_resplits_against_disk_after_winning_the_lock(self, tmp_path):
        # A store snapshot taken while another campaign was writing must
        # not drive execution: run() reloads under the lock, so work the
        # other campaign stored is served from cache, not redone and
        # re-appended as superseded duplicate lines.
        path = tmp_path / "store.jsonl"
        specs = [ScenarioSpec(n=5, t=1, f=1, seed=s) for s in range(2)]
        stale = ResultStore(path)  # snapshot: empty file
        # The other campaign:
        CampaignRunner(store=ResultStore(path)).run(specs)
        result = CampaignRunner(store=stale).run(specs)
        assert result.stats.executed == 0
        assert result.stats.cached == 2
        assert ResultStore(path).superseded_lines == 0

    def test_store_reload_picks_up_foreign_appends(self, tmp_path):
        path = tmp_path / "store.jsonl"
        first = ResultStore(path)
        ResultStore(path).put("aa" * 32, {"agreed": True})
        assert first.get("aa" * 32) is None  # stale snapshot
        first.reload()
        assert first.get("aa" * 32) == {"agreed": True}

    def test_lazy_store_loads_nothing_until_reload(self, tmp_path):
        path = tmp_path / "store.jsonl"
        ResultStore(path).put("aa" * 32, {"agreed": True})
        lazy = ResultStore(path, load=False)
        assert len(lazy) == 0 and lazy.total_lines == 0
        lazy.reload()
        assert len(lazy) == 1 and lazy.total_lines == 1

    def test_pending_probe_is_read_only(self, tmp_path):
        path = tmp_path / "store.jsonl"
        holder = ResultStore(path)
        holder.acquire_lock()
        runner = CampaignRunner(store=ResultStore(path))
        assert len(runner.pending([ScenarioSpec(n=5, t=1, f=1)])) == 1
        holder.release_lock()

    def test_close_releases_lock(self, tmp_path):
        store = ResultStore(tmp_path / "store.jsonl")
        store.acquire_lock()
        store.close()
        other = ResultStore(store.path)
        other.acquire_lock()  # free again: close dropped the kernel lock
        other.release_lock()

    def test_fallback_exclusive_create_lock(self, tmp_path):
        # The non-fcntl fallback path: O_EXCL creation + pid probing.
        store = ResultStore(tmp_path / "store.jsonl")
        store.lock_path.write_text("99999999\n")  # stale holder
        store._acquire_lock_exclusive_create()
        assert store.lock_path.read_text().strip() == str(os.getpid())
        second = ResultStore(store.path)
        with pytest.raises(StoreLockError, match="locked by running"):
            second._acquire_lock_exclusive_create()
        store.release_lock()


class TestStoreCli:
    def seed_store(self, path, rows=3, superseded=1):
        store = ResultStore(path)
        for i in range(rows):
            store.put(f"key{i}", {"value": i})
        for i in range(superseded):
            store.put(f"key{i}", {"value": i + 100})  # supersedes
        store.close()
        return store

    def test_compact_drops_superseded_and_corrupt(self, capsys, tmp_path):
        path = tmp_path / "store.jsonl"
        self.seed_store(path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("{broken\n")
        assert main(["store", "compact", str(path), "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "5 line(s) -> 3 row(s)" in out
        assert "1 superseded" in out and "1 corrupt" in out
        assert "dry run" in out
        assert len(path.read_text().splitlines()) == 5  # unchanged

        assert main(["store", "compact", str(path)]) == 0
        out = capsys.readouterr().out
        assert "compacted: 3 row(s)" in out
        assert "2 line(s) dropped" in out  # 1 superseded + 1 corrupt
        assert len(path.read_text().splitlines()) == 3
        reloaded = ResultStore(path)
        assert reloaded.get("key0") == {"value": 100}  # last write won
        assert reloaded.corrupt_lines == 0

    def test_compact_missing_store_is_an_error(self, capsys, tmp_path):
        assert main(["store", "compact", str(tmp_path / "nope.jsonl")]) == 2
        assert "no such store" in capsys.readouterr().err

    def test_merge_last_write_wins_and_dry_run(self, capsys, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        out = tmp_path / "out.jsonl"
        store_a = ResultStore(a)
        store_a.put("shared", {"value": "a"})
        store_a.put("only-a", {"value": 1})
        store_a.close()
        store_b = ResultStore(b)
        store_b.put("shared", {"value": "b"})
        store_b.put("only-b", {"value": 2})
        store_b.close()

        assert main(["store", "merge", str(out), str(a), str(b),
                     "--dry-run"]) == 0
        assert "dry run" in capsys.readouterr().out
        assert not out.exists()

        assert main(["store", "merge", str(out), str(a), str(b)]) == 0
        assert "3 row(s)" in capsys.readouterr().out
        merged = ResultStore(out)
        assert len(merged) == 3
        assert merged.get("shared") == {"value": "b"}  # later input wins
        assert merged.superseded_lines == 0  # merge ends compacted

    def test_merge_missing_input_is_an_error(self, capsys, tmp_path):
        good = tmp_path / "good.jsonl"
        self.seed_store(good, rows=1, superseded=0)
        # A typo'd shard must fail loudly, not merge as an empty store.
        assert main(["store", "merge", str(tmp_path / "out.jsonl"),
                     str(good), str(tmp_path / "typo.jsonl")]) == 2
        assert "no such store" in capsys.readouterr().err
        assert not (tmp_path / "out.jsonl").exists()

    def test_merge_into_existing_store(self, capsys, tmp_path):
        out, extra = tmp_path / "out.jsonl", tmp_path / "extra.jsonl"
        self.seed_store(out, rows=2, superseded=0)
        store = ResultStore(extra)
        store.put("key1", {"value": "new"})
        store.put("key9", {"value": 9})
        store.close()
        assert main(["store", "merge", str(out), str(extra)]) == 0
        out_text = capsys.readouterr().out
        assert "1 new" in out_text and "1 overwritten" in out_text
        merged = ResultStore(out)
        assert merged.get("key1") == {"value": "new"}
        assert len(merged) == 3


class TestBackendCli:
    def test_campaign_backend_socket(self, capsys, tmp_path, worker_pair):
        connect = ",".join(server.address for server in worker_pair)
        store = str(tmp_path / "cli.jsonl")
        argv = ["campaign", "--n", "5,6", "--budgets", "0,2", "--seeds", "2",
                "--backend", "socket", "--connect", connect,
                "--store", store]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "executed 8" in out
        assert "socket: 2 worker(s)" in out
        # Rerun is served from the store through the same backend flag.
        assert main(argv) == 0
        assert "executed 0" in capsys.readouterr().out

    def test_campaign_socket_without_connect_is_clean_error(self, capsys):
        assert main(["campaign", "--n", "5", "--backend", "socket"]) == 2
        assert "--connect" in capsys.readouterr().err

    def test_campaign_unreachable_workers_exit_1(self, capsys):
        probe = socket_module.socket()
        probe.bind(("127.0.0.1", 0))
        dead_address = "127.0.0.1:%d" % probe.getsockname()[1]
        probe.close()
        assert main(["campaign", "--n", "5", "--backend", "socket",
                     "--connect", dead_address, "--connect-retries", "0"]) == 1
        assert "no socket workers reachable" in capsys.readouterr().err

    def test_worker_bad_address_exits_2(self, capsys):
        assert main(["worker", "--serve", "not-an-address"]) == 2
        assert "error" in capsys.readouterr().err

    def test_campaign_pool_backend_flag(self, capsys):
        assert main(["campaign", "--n", "5", "--seeds", "2",
                     "--backend", "pool", "--workers", "2"]) == 0
        assert "campaign summary" in capsys.readouterr().out


class TestMonkeypatchedExecution:
    def test_execute_job_is_the_single_execution_entry(self, monkeypatch):
        calls = []

        def fake(spec):
            calls.append(spec)
            return {"scenario": spec.scenario_hash(), "ok": True}

        monkeypatch.setattr(backends_base, "execute_spec", fake)
        spec = ScenarioSpec(n=5, t=1, f=1)
        result = CampaignRunner(backend=SerialBackend()).run([spec])
        assert result.rows[0]["ok"] is True
        assert calls == [spec]
