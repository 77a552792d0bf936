"""TCP scenario worker: the serving half of the socket backend.

``python -m repro worker --serve HOST:PORT`` runs one of these.  A worker
is stateless between jobs -- every scenario row is a pure function of its
spec -- so any number of workers can serve any number of campaigns, and a
killed worker costs nothing but the requeue of its in-flight scenarios.

Each accepted connection gets two threads:

* a *reader* that owns ``recv`` -- it answers ``ping`` frames immediately
  (even while a scenario is executing, which is what makes the driver's
  heartbeat meaningful) and feeds ``job`` frames to
* an *executor* that runs them strictly in arrival order and answers
  each with one ``result`` frame under a send lock.

The server owns every thread and session socket it creates:
:meth:`WorkerServer.stop` shuts each open session down and joins the
accept, reader and executor threads before it returns.

Failure injection: ``die_after_jobs=N`` makes the worker drop the
connection -- and stop serving -- the moment it receives job frame
``N + 1``, without replying (so the driver requeues everything in
flight).  Tests and the CI ``backend-smoke`` job use it to prove that
campaigns survive a worker dying mid-run.
"""

from __future__ import annotations

import logging
import queue
import socket
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from ...analysis.watchdog import traced_lock
from ...obs.logsetup import configure_logging, kv
from ..scenario import ScenarioSpec
from .base import execute_job, timed_execute_job
from .wire import (
    PROTOCOL_VERSION,
    WireError,
    decode_job,
    recv_frame,
    send_frame,
)

#: Structured worker log: accept/handshake/disconnect/die events as
#: ``event key=value`` lines (see :mod:`repro.obs.logsetup`).  Stdout
#: stays reserved for the machine-parsed ``worker listening on ...``
#: line; the CLI routes this logger to stderr via ``--log-level``.
_log = logging.getLogger("repro.worker")


class WorkerServer:
    """Serve scenario executions over TCP.

    Args:
        host: interface to bind (default loopback).
        port: port to bind; ``0`` picks a free port (see :attr:`port`).
        die_after_jobs: failure injection -- accept this many job
            frames, then drop dead without replying (``None`` disables).
        log: optional ``print``-like callable for one-line status output.
    """

    #: Seconds a fresh connection gets to complete the hello/welcome
    #: exchange; a peer that connects and never speaks (port scanner,
    #: hung driver) is dropped instead of pinning a thread and fd.
    HANDSHAKE_TIMEOUT = 30.0

    #: Seconds :meth:`stop` waits, in total, for the threads it joins
    #: (an executor that is mid-scenario finishes that scenario first).
    STOP_TIMEOUT = 10.0

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        die_after_jobs: Optional[int] = None,
        log: Optional[Any] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.die_after_jobs = die_after_jobs
        self.log = log or (lambda *_: None)
        self.jobs_done = 0
        self.sessions = 0
        self._jobs_seen = 0
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._stopping = threading.Event()
        # Watchdog-instrumented (repro lint C-series): job/death
        # accounting plus the thread and session registries, and the
        # per-connection sends, are the worker's two lock domains;
        # neither may nest inside the other.
        self._lock = traced_lock("WorkerServer._lock")
        #: Every thread this server started (accept, reader, executor);
        #: :meth:`stop` joins them.
        self._threads: List[threading.Thread] = []
        #: Open sessions: accepted socket -> its executor's job queue.
        self._sessions: Dict[socket.socket, "queue.Queue[Any]"] = {}

    # -- lifecycle -----------------------------------------------------

    def start(self) -> Tuple[str, int]:
        """Bind, listen, and accept in a background thread (for tests and
        embedded use); returns the bound ``(host, port)``."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen(8)
        self.port = listener.getsockname()[1]
        self._listener = listener
        self._accept_thread = self._spawn(
            self._accept_loop, (), f"worker-accept:{self.port}"
        )
        # Stdout contract: benchmarks and CI parse this exact line for
        # the bound address, so it stays a plain print-style message.
        self.log(f"worker listening on {self.host}:{self.port}")
        _log.info(kv("serving", host=self.host, port=self.port,
                     protocol=PROTOCOL_VERSION,
                     die_after_jobs=self.die_after_jobs))
        return self.host, self.port

    def serve_forever(self) -> None:
        """Blocking form of :meth:`start` (the CLI entry point)."""
        if self._listener is None:
            self.start()
        self._stopping.wait()

    def stop(self) -> None:
        """Stop serving and reclaim everything :meth:`start` created.

        Closes the listener, shuts every open session socket down (which
        wakes its reader out of ``recv``), tells every executor to drop
        its queued jobs, and joins each thread this server started, all
        within :attr:`STOP_TIMEOUT`.  Safe to call from one of those
        threads -- ``die_after_jobs`` does -- which skips joining itself.
        """
        self._stopping.set()
        deadline = time.monotonic() + self.STOP_TIMEOUT
        listener, self._listener = self._listener, None
        if listener is not None:
            _shutdown(listener)  # wakes the accept thread out of accept(2)
            listener.close()
        me = threading.current_thread()
        accept = self._accept_thread
        if accept is not None and accept is not me:
            # Accept first: once it has exited no new session can start,
            # so the snapshot below is final.
            accept.join(max(0.0, deadline - time.monotonic()))
        with self._lock:
            sessions = list(self._sessions.items())
            threads = list(self._threads)
        for conn, jobs in sessions:
            _shutdown(conn)
            jobs.put(None)
        for thread in threads:
            if thread is not me:
                thread.join(max(0.0, deadline - time.monotonic()))

    @property
    def address(self) -> str:
        """The ``HOST:PORT`` string drivers pass to ``--connect``."""
        return f"{self.host}:{self.port}"

    def __enter__(self) -> "WorkerServer":
        if self._listener is None:
            self.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    def _spawn(self, target: Callable[..., None], args: Tuple[Any, ...],
               name: str) -> threading.Thread:
        """Start a daemon thread owned by this server (joined by
        :meth:`stop`); finished threads are pruned from the registry."""
        thread = threading.Thread(target=target, args=args, name=name,
                                  daemon=True)
        with self._lock:
            self._threads = [t for t in self._threads if t.is_alive()]
            self._threads.append(thread)
        thread.start()
        return thread

    # -- serving -------------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._stopping.is_set():
            listener = self._listener
            if listener is None:
                return
            try:
                conn, peer = listener.accept()
            except OSError:
                if self._stopping.is_set() or self._listener is None:
                    return  # listener closed by stop()
                # Transient accept failure (peer reset between SYN and
                # accept, fd exhaustion): keep serving -- exiting here
                # would deafen a live worker forever.  The brief wait
                # keeps an EMFILE storm from spinning the loop.
                self._stopping.wait(0.05)
                continue
            if self._stopping.is_set():
                # A connection that raced stop(): refuse it, so a driver
                # dialing a worker that just injected its death cannot
                # get a fresh session from the "corpse".
                try:
                    conn.close()
                except OSError:
                    pass
                return
            self.sessions += 1
            self._spawn(self._serve_connection, (conn, peer),
                        f"worker-conn:{peer}")

    def _serve_connection(self, conn: socket.socket, peer: Any) -> None:
        jobs: "queue.Queue[Optional[Dict[str, Any]]]" = queue.Queue()
        with self._lock:
            # Registered under the lock that stop() snapshots under: a
            # session either gets shut down by stop() or sees it here.
            refused = self._stopping.is_set()
            if not refused:
                self._sessions[conn] = jobs
        if refused:
            conn.close()
            return
        _enable_keepalive(conn)
        try:
            # Result frames are small: with Nagle on, a frame waits for the
            # driver's ACK of the previous one, a delayed-ACK stall (up to
            # ~40 ms) on the last results of every campaign.
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass  # latency tuning only: the session works without it
        peer_name = f"{peer[0]}:{peer[1]}" if isinstance(peer, tuple) else str(peer)
        session_start = time.perf_counter()
        session_jobs = 0
        _log.info(kv("accept", peer=peer_name, session=self.sessions))
        send_lock = traced_lock("WorkerServer.send_lock")
        self._spawn(self._execute_loop, (conn, send_lock, jobs),
                    f"worker-exec:{peer}")
        try:
            conn.settimeout(self.HANDSHAKE_TIMEOUT)
            if not self._handshake(conn, send_lock, peer_name):
                return
            conn.settimeout(None)  # drivers go quiet while we execute
            while True:
                doc = recv_frame(conn)
                if doc is None or doc["type"] == "bye":
                    return
                if doc["type"] == "ping":
                    with send_lock:
                        send_frame(conn, {"type": "pong"})
                elif doc["type"] == "job":
                    # A malformed job is a WireError that drops the
                    # session before anything executes.
                    decode_job(doc)
                    if self._should_die():
                        self.log(f"worker {self.address}: injected death")
                        _log.warning(kv("die-after-jobs", peer=peer_name,
                                        jobs_seen=self._jobs_seen,
                                        limit=self.die_after_jobs))
                        self.stop()
                        return  # finally: abrupt close, no reply
                    # Arrival stamp: the executor subtracts it to report
                    # worker-side queue wait in the timing sidecar.
                    doc["_recv_perf"] = time.perf_counter()
                    session_jobs += 1
                    jobs.put(doc)
                # unknown types are ignored (forward compatibility)
        except (WireError, OSError):
            pass  # peer vanished or spoke garbage: drop the session
        finally:
            jobs.put(None)
            with self._lock:
                self._sessions.pop(conn, None)
            _log.info(kv("disconnect", peer=peer_name, jobs=session_jobs,
                         dur_s=round(time.perf_counter() - session_start, 6)))
            try:
                conn.close()
            except OSError:
                pass

    def _handshake(self, conn: socket.socket, send_lock: threading.Lock,
                   peer_name: str = "?") -> bool:
        doc = recv_frame(conn)
        if doc is None or doc.get("type") != "hello":
            _log.warning(kv("handshake-refused", peer=peer_name,
                            reason="no-hello"))
            return False
        if doc.get("protocol") != PROTOCOL_VERSION:
            _log.warning(kv("handshake-refused", peer=peer_name,
                            reason="protocol-skew",
                            theirs=doc.get("protocol"),
                            ours=PROTOCOL_VERSION))
            with send_lock:
                send_frame(conn, {
                    "type": "error",
                    "reason": f"protocol version mismatch: worker speaks "
                              f"{PROTOCOL_VERSION}, driver spoke "
                              f"{doc.get('protocol')!r}",
                })
            return False
        import os
        with send_lock:
            send_frame(conn, {
                "type": "welcome",
                "protocol": PROTOCOL_VERSION,
                "worker_pid": os.getpid(),
            })
        _log.info(kv("handshake", peer=peer_name,
                     driver_pid=doc.get("driver_pid"),
                     protocol=PROTOCOL_VERSION))
        return True

    def _should_die(self) -> bool:
        if self.die_after_jobs is None:
            return False
        with self._lock:
            self._jobs_seen += 1
            return self._jobs_seen > self.die_after_jobs

    def _execute_loop(
        self,
        conn: socket.socket,
        send_lock: threading.Lock,
        jobs: "queue.Queue[Optional[Dict[str, Any]]]",
    ) -> None:
        while True:
            doc = jobs.get()
            if doc is None or self._stopping.is_set():
                return
            # Strictly in arrival order: a job reports the wait behind
            # the jobs ahead of it as worker-side queue_s.
            started = time.perf_counter()
            key, ok, row, timing = self._run_job(doc, bool(doc.get("telemetry")))
            timing["queue_s"] = round(started - doc["_recv_perf"], 6)
            self.jobs_done += 1
            try:
                with send_lock:
                    send_frame(conn, {
                        "type": "result", "key": key, "ok": ok, "row": row,
                        "timing": timing,
                    })
            except OSError:
                return  # driver went away; nothing to report to

    def _run_job(
        self, doc: Dict[str, Any], telemetry: bool
    ) -> Tuple[str, bool, Dict[str, Any], Dict[str, Any]]:
        """Rebuild one job frame's spec, cross-check its hash, execute.

        Returns the result triple plus the timing sidecar for the
        ``result`` frame: ``deser_s`` (spec rebuild + hash check) and
        ``exec_s`` always, ``perf`` cache stats when the job carried the
        ``telemetry`` flag.  The sidecar never touches the row itself.
        """
        key = doc["key"]
        timing: Dict[str, Any] = {}
        deser_start = time.perf_counter()
        try:
            spec = ScenarioSpec.from_dict(doc["spec"])
        except Exception as exc:  # noqa: BLE001 - reported to the driver
            return (key, False,
                    {"error": f"bad spec: {type(exc).__name__}: {exc}"},
                    timing)
        timing["deser_s"] = round(time.perf_counter() - deser_start, 6)
        if spec.scenario_hash() != key:
            # Version skew in hashing would silently mis-key the store;
            # refuse instead.
            return key, False, {
                "error": f"hash mismatch: driver sent {key[:12]}..., spec "
                         f"hashes to {spec.scenario_hash()[:12]}...",
            }, timing
        if telemetry:
            key, ok, row, timed = timed_execute_job((key, spec))
            timing["exec_s"] = round(timed["exec_s"], 6)
            if timed.get("perf") is not None:
                timing["perf"] = timed["perf"]
            return key, ok, row, timing
        exec_start = time.perf_counter()
        key, ok, row = execute_job((key, spec))
        timing["exec_s"] = round(time.perf_counter() - exec_start, 6)
        return key, ok, row, timing


def serve(address: str, die_after_jobs: Optional[int] = None,
          log_level: str = "info") -> int:
    """CLI entry: serve on ``HOST:PORT`` until interrupted (or dead).

    Structured log lines (accept/handshake/disconnect/die-after-jobs) go
    to stderr at ``log_level``; stdout carries only the machine-parsed
    ``worker listening on ...`` line.
    """
    from .wire import parse_address

    configure_logging(log_level)
    host, port = parse_address(address)
    server = WorkerServer(host=host, port=port,
                          die_after_jobs=die_after_jobs, log=_log_flush)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    server.stop()
    _log.info(kv("stopped", host=host, port=server.port,
                 jobs_done=server.jobs_done, sessions=server.sessions))
    return 0


def _log_flush(message: str) -> None:
    print(message, flush=True)


def _enable_keepalive(conn: socket.socket) -> None:
    """Arm TCP keepalive on an accepted driver connection.

    After the handshake the worker reads with no timeout (drivers go
    quiet while scenarios execute), so a driver host that crashes or
    partitions without delivering a FIN/RST would otherwise pin this
    session's reader thread, executor thread, and fd forever.  Keepalive
    makes the kernel probe the half-open peer and fail the blocked
    ``recv`` within a couple of minutes, letting the session clean up.
    The probe knobs are Linux-specific; elsewhere the OS defaults apply.
    """
    try:
        conn.setsockopt(socket.SOL_SOCKET, socket.SO_KEEPALIVE, 1)
        for name, value in (
            ("TCP_KEEPIDLE", 60),   # seconds idle before the first probe
            ("TCP_KEEPINTVL", 15),  # seconds between probes
            ("TCP_KEEPCNT", 4),     # failed probes before reset
        ):
            option = getattr(socket, name, None)
            if option is not None:
                conn.setsockopt(socket.IPPROTO_TCP, option, value)
    except OSError:
        pass  # keepalive is a hardening measure, never worth a refusal


def _shutdown(sock: socket.socket) -> None:
    """``shutdown(SHUT_RDWR)``, ignoring a socket that is already gone:
    wakes any thread blocked in ``accept``/``recv`` on it (Linux)."""
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
