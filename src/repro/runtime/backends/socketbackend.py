"""Socket backend: drive a fleet of TCP scenario workers.

The driver connects to every ``HOST:PORT`` it was given, handshakes
(protocol version check, see :mod:`~repro.runtime.backends.wire`), and
shards the pending scenarios across the connected workers by content
hash -- ``int(hash, 16) % workers`` -- so the initial assignment is
deterministic for a given worker count and independent of dict/queue
ordering.  One driver thread per worker keeps a small window of
scenarios in flight -- one ``job`` frame each, answered by one
``result`` frame.  A driver whose own share has run out steals queued
jobs from the peer with the longest queue, so a worker that drew a
cheaper share (or a faster CPU) never idles while a peer still has a
backlog.  Each driver also enforces liveness:

* a worker that closes its socket (killed process, network drop) is dead
  immediately;
* a worker that goes quiet past ``job_timeout`` is pinged; no frame
  within ``ping_grace`` declares it dead.  Workers answer pings from a
  dedicated reader thread even mid-execution, so a slow scenario on a
  live worker runs as long as it takes, as on the serial and pool
  backends.  TCP delivers every frame of a live connection, so a job
  that was sent is never sent again to the same worker.

Connect retries re-dial unreachable workers with exponential backoff
and jitter (``connect_retries``) before giving up on an address; by
default a partial fleet is accepted once at least one worker answers.

Failure handling follows two rules.  A dead worker's scenarios are
requeued onto the survivors (again by hash), and results are
deduplicated by scenario hash, so a campaign that loses workers yields
exactly one row per scenario -- byte-identical to a serial run, because
rows are pure functions of their specs.  When the last worker dies with
scenarios unfinished, the campaign stops with :class:`BackendError`;
the runner has stored every row that finished, so a store-backed rerun
resumes where it stopped.  Every recovery action emits an obs event
(``socket.retry``, ``socket.worker_dead``, ``socket.requeue``) rendered
by ``repro stats``.
"""

from __future__ import annotations

import logging
import queue
import random
import socket
import threading
import time
from typing import (
    Any, Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union,
)

from ...obs import metrics
from ...obs.logsetup import kv
from ...obs.spans import Telemetry, current
from .base import Backend, BackendError, Job, JobResult
from .wire import (
    PROTOCOL_VERSION,
    FrameReceiver,
    WireError,
    decode_result,
    parse_address,
    recv_frame,
    send_frame,
)

#: Structured driver-side log (connect retries, unexpected frames).
_log = logging.getLogger("repro.socket")

#: Sentinel telling a driver thread its worker has no further work.
_DONE = object()

#: Base delay of the first connect retry; it doubles per retry round.
_BACKOFF_S = 0.5

#: Ceiling on connect-retry backoff growth.
_MAX_BACKOFF_S = 30.0

#: One submit-loop event: ``(kind, link, payload)``.
_Event = Tuple[str, Any, Any]


class _WorkerLink:
    """Driver-side state for one connected worker, labelled by its address."""

    def __init__(self, address: str, sock: Any) -> None:
        self.address = address
        self.sock = sock
        #: Resumable reader: heartbeat timeouts must not lose the bytes
        #: of a result frame caught mid-flight (see ``wire.FrameReceiver``).
        self.reader = FrameReceiver(sock)
        self.jobs: "queue.Queue[Any]" = queue.Queue()
        self.finishing = False
        self.completed = 0
        #: Measured ping round trips, oldest first (the post-handshake
        #: calibration ping plus any heartbeat pings; GIL-atomic appends).
        self.ping_rtts: List[float] = []
        #: Telemetry only: per-key ``(queue_s, serialize_s, sent_perf)``.
        self.phase_meta: Dict[str, Tuple[float, float, float]] = {}
        #: Jobs currently in flight on this link (driver-thread writes,
        #: live-view reads).
        self.inflight_jobs = 0

    def enqueue(self, key: str, spec: Any) -> None:
        """Queue one job, stamped with its enqueue time (queue-wait phase)."""
        self.jobs.put((key, spec, time.perf_counter()))

    def take(self, peers: Sequence["_WorkerLink"], block: bool) -> Any:
        """The next item for this link's driver thread.

        The link's own queue comes first.  When it is empty and the link
        has nothing in flight -- its worker is about to idle, and the
        driver makes this its ``block=True`` call -- one job is stolen
        from the peer with the longest queue: hash shares differ in size
        and cost, and without stealing a worker whose share ran out would
        idle while a peer still has a backlog.  A link with work in
        flight is not starving and steals nothing: it would only take
        jobs the peer's driver is about to send, up to the peer's whole
        share at a wide window.  A peer's ``_DONE`` sentinel is put back,
        never taken.  With nothing to take, this blocks on the link's own
        queue if ``block`` is set and raises ``queue.Empty`` otherwise.
        """
        try:
            return self.jobs.get_nowait()
        except queue.Empty:
            pass
        if not self.inflight_jobs:
            others = [peer for peer in peers if peer is not self]
            others.sort(key=lambda peer: peer.jobs.qsize(), reverse=True)
            for peer in others:
                try:
                    item = peer.jobs.get_nowait()
                except queue.Empty:
                    continue
                if item is _DONE:
                    peer.jobs.put(_DONE)
                    continue
                return item
        return self.jobs.get(block=block)

    def drain_jobs(self) -> List[Job]:
        """Empty the job queue, dropping ``_DONE`` sentinels.

        Both salvage paths -- the driver thread's death report and the
        main loop's handling of it -- must use this, so jobs requeued
        onto a link in either window are never stranded unread.
        Enqueue-time stamps are stripped: salvage returns plain jobs.
        """
        drained: List[Job] = []
        while True:
            try:
                job = self.jobs.get_nowait()
            except queue.Empty:
                return drained
            if job is not _DONE:
                drained.append((job[0], job[1]))

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


class _WorkerDied(Exception):
    """Internal: the link's worker is unreachable or unresponsive."""


class _Submission:
    """The state of one :meth:`SocketBackend.submit` call, and its handlers.

    Driver threads post ``(kind, link, payload)`` events; the submit loop
    hands each ``result`` to :meth:`on_result`, which returns the results
    it settled, and each ``dead`` to :meth:`on_dead`.  Every field is
    written only on the submit thread: driver threads just post events,
    so no handler needs a lock.  Driver threads read two things besides
    their own link: ``live``, to pick a peer to steal from, and the
    peers' job queues, which are thread-safe.
    """

    def __init__(self, backend: "SocketBackend", pending: List[Job],
                 links: List[_WorkerLink], unreachable: List[str]) -> None:
        self.backend = backend
        self.telemetry = current()
        self.events: "queue.Queue[_Event]" = queue.Queue()
        self.remaining: Set[str] = {key for key, _ in pending}
        #: Every link of this submit, dead ones included.
        self.links = links
        self.live: List[_WorkerLink] = list(links)
        self.threads: List[threading.Thread] = []
        self.stats: Dict[str, Any] = {
            "workers": len(links),
            "unreachable": unreachable,
            "lost": 0,
            "requeued": 0,
            "duplicates": 0,
            "per_worker": {},
            "ping_rtt_s": [],
        }
        for key, spec in pending:
            links[_shard(key, len(links))].enqueue(key, spec)

    def start_driver(self, link: _WorkerLink) -> None:
        """Start the link's driver thread, which :meth:`close` joins."""
        # The driver reads ``live`` to pick a peer to steal from: a
        # GIL-atomic read of a list only the submit thread rebinds.
        thread = threading.Thread(
            target=self.backend._drive,
            args=(link, self.events, lambda: self.live),
            name=f"socket-driver:{link.address}", daemon=True,
        )
        thread.start()
        self.threads.append(thread)

    # -- event handlers ------------------------------------------------

    def on_result(self, link: _WorkerLink,
                  payload: JobResult) -> List[JobResult]:
        key = payload[0]
        if key not in self.remaining:
            self.stats["duplicates"] += 1
            return []
        self.remaining.discard(key)
        link.completed += 1
        return [payload]

    def on_dead(self, link: _WorkerLink,
                payload: Tuple[List[Job], List[Job]]) -> None:
        """Requeue a dead link's jobs onto the survivors.

        Raises:
            BackendError: no live link is left and scenarios remain.
        """
        inflight_jobs, queued_jobs = payload
        self.live = [peer for peer in self.live if peer is not link]
        link.close()
        self.stats["lost"] += 1
        # The driver thread drained its queue before posting this event,
        # but if another worker died first, the submit loop may have
        # requeued jobs onto the link in that window -- jobs its own
        # driver will never read (a peer may steal some, not all).
        # Requeue puts happen only on the submit thread, so draining
        # here, after removing the link from ``live``, is final.
        salvaged = inflight_jobs + queued_jobs + link.drain_jobs()
        self.telemetry.event("socket.worker_dead", worker=link.address,
                             salvaged=len(salvaged))
        if not self.live and self.remaining:
            raise BackendError(
                f"all socket worker(s) died with {len(self.remaining)} "
                f"scenario(s) unfinished"
            )
        requeue = {key: spec for key, spec in salvaged if key in self.remaining}
        for key, spec in requeue.items():
            self.live[_shard(key, len(self.live))].enqueue(key, spec)
        if requeue:
            self.telemetry.event("socket.requeue", count=len(requeue),
                                 survivors=len(self.live))
        self.stats["requeued"] += len(requeue)
        metrics.inc("socket.requeues", len(requeue))

    # -- teardown --------------------------------------------------------

    def close(self) -> None:
        """Dismiss the drivers, join every thread this submit started,
        close every link and fold the per-link counters into
        :attr:`stats`."""
        for link in self.live:
            link.jobs.put(_DONE)
        for thread in self.threads:
            thread.join(timeout=self.backend.ping_grace)
        per_worker: Dict[str, int] = {}
        for link in self.links:
            link.close()
            per_worker[link.address] = (
                per_worker.get(link.address, 0) + link.completed
            )
        self.stats["per_worker"] = per_worker
        self.stats["ping_rtt_s"] = [
            rtt for link in self.links for rtt in link.ping_rtts
        ]


class SocketBackend(Backend):
    """Execute scenarios on remote ``python -m repro worker`` processes.

    Args:
        addresses: worker endpoints, as ``"host:port"`` strings or
            ``(host, port)`` pairs.
        job_timeout: seconds of silence from a worker with jobs in
            flight before it is pinged; a worker that answers keeps its
            jobs, however long they run.
        ping_grace: seconds after a ping before the worker is declared
            dead.
        connect_timeout: handshake/connect deadline per worker.
        window: jobs kept in flight per worker (pipelining hides the
            request/response round trip).
        require_all: with ``True``, fail fast if any address is still
            unreachable after the connect retries; the default tolerates
            unreachable workers as long as at least one connects (they
            are listed in :meth:`summary`).
        connect_retries: extra connect rounds for unreachable addresses
            (exponential backoff from half a second, jittered).  Retries
            keep going only while they matter: until at least one worker
            is connected, or until all are with ``require_all``.
    """

    name = "socket"
    parallel = True
    distributed = True

    def __init__(
        self,
        addresses: Sequence[Union[str, Tuple[str, int]]],
        job_timeout: float = 300.0,
        ping_grace: float = 10.0,
        connect_timeout: float = 10.0,
        window: int = 2,
        require_all: bool = False,
        connect_retries: int = 2,
    ) -> None:
        if not addresses:
            raise ValueError("socket backend needs at least one worker address")
        self.addresses = [
            addr if isinstance(addr, str) else f"{addr[0]}:{addr[1]}"
            for addr in addresses
        ]
        if job_timeout <= 0 or ping_grace <= 0:
            raise ValueError("timeouts must be positive")
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        if connect_retries < 0:
            raise ValueError(f"connect_retries must be >= 0, got {connect_retries}")
        self.job_timeout = job_timeout
        self.ping_grace = ping_grace
        self.connect_timeout = connect_timeout
        self.window = window
        self.require_all = require_all
        self.connect_retries = connect_retries
        self.last_stats: Dict[str, Any] = {}
        #: Every link of the current/last submit (live view reads this;
        #: rebound to a fresh list per submit, so a stale reader sees a
        #: consistent snapshot of the previous campaign at worst).
        self._links: List[_WorkerLink] = []

    # -- connection setup ---------------------------------------------

    def _connect(self, address: str) -> Tuple[socket.socket, Optional[float]]:
        """Handshake with one worker; returns the socket and a measured
        ping round trip (the first latency sample for :meth:`summary`)."""
        host, port = parse_address(address)
        sock = socket.create_connection((host, port), timeout=self.connect_timeout)
        rtt: Optional[float] = None
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            import os
            send_frame(sock, {
                "type": "hello",
                "protocol": PROTOCOL_VERSION,
                "driver_pid": os.getpid(),
            })
            doc = recv_frame(sock)
            if doc is None:
                raise BackendError(f"worker {address} closed during handshake")
            if doc["type"] == "error":
                raise BackendError(
                    f"worker {address} refused: {doc.get('reason', 'unknown')}"
                )
            if doc["type"] != "welcome" or doc.get("protocol") != PROTOCOL_VERSION:
                raise BackendError(
                    f"worker {address} spoke unexpected handshake {doc!r}"
                )
            # Calibration ping: one measured round trip per connection, so
            # the RTT summary has a latency signal even on campaigns too
            # fast to ever trip the heartbeat path.  Nothing but a pong is
            # owed at this point, but an over-eager peer is not a protocol
            # crime: tolerate a few unexpected frames (logged + counted)
            # rather than mistiming the sample or dropping the session.
            ping_start = time.perf_counter()
            send_frame(sock, {"type": "ping"})
            for _ in range(3):
                pong = recv_frame(sock)
                if pong is None:
                    raise BackendError(
                        f"worker {address} closed during calibration ping"
                    )
                if pong.get("type") == "pong":
                    rtt = time.perf_counter() - ping_start
                    break
                _log.warning(kv("unexpected-frame", worker=address,
                                frame_type=pong.get("type"),
                                context="calibration-ping"))
                current().event("socket.unexpected_frame", worker=address,
                                frame_type=pong.get("type"),
                                context="calibration-ping")
        except (WireError, OSError) as exc:
            sock.close()
            raise BackendError(f"handshake with {address} failed: {exc}") from exc
        except BackendError:
            sock.close()
            raise
        return sock, rtt

    def _open_link(self, address: str) -> _WorkerLink:
        """Connect + handshake one worker into a ready :class:`_WorkerLink`."""
        connect_start = time.perf_counter()
        sock, rtt = self._connect(address)
        connect_s = time.perf_counter() - connect_start
        link = _WorkerLink(address, sock)
        if rtt is not None:
            link.ping_rtts.append(rtt)
        current().event(
            "socket.connect", worker=address,
            dur_s=round(connect_s, 6),
            rtt_s=round(rtt, 6) if rtt is not None else None,
        )
        return link

    def _connect_all(self) -> Tuple[List[_WorkerLink], List[str]]:
        """Dial every address, retrying with exponential backoff + jitter.

        Retries are spent only while they can change the outcome: while
        zero workers are connected (a campaign cannot start), or while
        any worker is missing under ``require_all``.  Addresses still
        down when a quorum exists sit this campaign out.
        """
        telemetry = current()
        links: List[_WorkerLink] = []
        waiting = list(self.addresses)
        errors: Dict[str, Exception] = {}
        attempt = 0
        while True:
            still_down: List[str] = []
            for address in waiting:
                try:
                    links.append(self._open_link(address))
                except (BackendError, OSError) as exc:
                    errors[address] = exc
                    still_down.append(address)
            waiting = still_down
            if not waiting:
                break
            must_retry = self.require_all or not links
            if not must_retry or attempt >= self.connect_retries:
                break
            attempt += 1
            delay = _jittered(
                min(_BACKOFF_S * (2 ** (attempt - 1)), _MAX_BACKOFF_S)
            )
            _log.warning(kv("connect-retry", attempt=attempt,
                            waiting=",".join(waiting),
                            delay_s=round(delay, 3)))
            telemetry.event("socket.retry", attempt=attempt,
                            waiting=len(waiting), delay_s=round(delay, 3))
            time.sleep(delay)
        if waiting and self.require_all:
            for link in links:
                link.close()
            address = waiting[0]
            raise BackendError(
                f"worker {address} unreachable: {errors[address]}"
            ) from errors[address]
        if not links:
            raise BackendError(
                "no socket workers reachable: " + ", ".join(self.addresses)
            )
        return links, waiting

    # -- submit --------------------------------------------------------

    def submit(self, pending: List[Job]) -> Iterator[JobResult]:
        """Shard, stream, requeue, dedup; yields one result per key.

        A dead link's jobs are requeued onto the survivors.  The state
        and its event handlers live in :class:`_Submission`.

        Raises:
            BackendError: no worker is reachable, or the last live worker
                died with scenarios unfinished.
        """
        if not pending:
            return
        links, unreachable = self._connect_all()
        run = _Submission(self, pending, links, unreachable)
        self.last_stats = run.stats
        self._links = run.links
        try:
            for link in links:
                run.start_driver(link)
            while run.remaining:
                kind, link, payload = run.events.get()
                if kind == "result":
                    yield from run.on_result(link, payload)
                else:
                    run.on_dead(link, payload)
        finally:
            run.close()

    def summary(self) -> str:
        stats = self.last_stats
        if not stats:
            return f"socket: {len(self.addresses)} worker(s) configured"
        parts = [f"socket: {stats['workers']} worker(s)"]
        if stats["unreachable"]:
            parts.append(f"{len(stats['unreachable'])} unreachable "
                         f"({', '.join(stats['unreachable'])})")
        if stats["lost"]:
            parts.append(f"{stats['lost']} lost mid-campaign")
        if stats["requeued"]:
            parts.append(f"{stats['requeued']} scenario(s) requeued")
        if stats["duplicates"]:
            parts.append(f"{stats['duplicates']} duplicate result(s) dropped")
        completed = ", ".join(
            f"{addr}={count}" for addr, count in stats["per_worker"].items()
        )
        if completed:
            parts.append(f"completed {completed}")
        rtts = stats.get("ping_rtt_s") or []
        if rtts:
            parts.append(
                "ping rtt ms min/mean/max "
                f"{min(rtts) * 1e3:.2f}/{sum(rtts) / len(rtts) * 1e3:.2f}/"
                f"{max(rtts) * 1e3:.2f}"
            )
        return " | ".join(parts)

    def live_workers(self) -> List[Dict[str, Any]]:
        """Per-link rows for the live progress view, all driver-side
        state: jobs in flight, the pipeline window, results completed
        and the last ping round trip.  Read from the reporter thread
        while driver threads mutate the links: every field is a
        GIL-atomic read of an int/float/reference, so rows are slightly
        stale but never torn.
        """
        rows: List[Dict[str, Any]] = []
        for link in list(self._links):
            rtts = link.ping_rtts
            rows.append({
                "worker": link.address,
                "inflight": link.inflight_jobs,
                "window": self.window,
                "completed": link.completed,
                "rtt_ms": round(rtts[-1] * 1e3, 2) if rtts else None,
            })
        return rows

    # -- per-worker driver thread -------------------------------------

    def _drive(
        self,
        link: _WorkerLink,
        events: "queue.Queue[_Event]",
        peers: Callable[[], Sequence[_WorkerLink]],
    ) -> None:
        telemetry = current()
        #: scenario key -> job, for every job sent and not yet answered.
        inflight: Dict[str, Job] = {}
        try:
            while True:
                self._fill_window(link, peers(), inflight, telemetry)
                if link.finishing and not inflight:
                    self._farewell(link)
                    return
                doc = self._await_frame(link)
                if doc["type"] != "result":
                    continue  # pongs and unknown types just prove liveness
                # A malformed result is a WireError -> dead link ->
                # requeue, decided before any in-flight bookkeeping.
                result = decode_result(doc)
                key = result["key"]
                if inflight.pop(key, None) is None:
                    # An answer to no job in flight on this link: the
                    # peer is outside the program, so drop it by key.
                    continue
                link.inflight_jobs -= 1
                if telemetry.enabled:
                    self._record_job(telemetry, link, result)
                events.put(("result", link, (key, result["ok"], result["row"])))
        except Exception:  # noqa: BLE001 - any escape means this link is
            # done; anything short of reporting it dead would leave its
            # in-flight scenarios unresolved and submit() blocked forever.
            link.inflight_jobs = 0
            events.put(("dead", link, (list(inflight.values()),
                                       link.drain_jobs())))

    def _record_job(self, telemetry: Telemetry, link: _WorkerLink,
                    result: Dict[str, Any]) -> None:
        """One wide ``job`` event per result, decomposed into phases.

        Driver-side phases come from the link's per-key stamp (queue
        wait, serialize, in flight); worker-side phases arrive in the
        ``result`` frame's ``timing`` sidecar (deserialize, worker
        queue, execute, cache stats).
        """
        key = result["key"]
        timing = result.get("timing") or {}
        attrs: Dict[str, Any] = {
            "key": key[:12],
            "backend": self.name,
            "worker": link.address,
            "ok": result["ok"],
            "worker_queue_s": timing.get("queue_s"),
            "deser_s": timing.get("deser_s"),
            "exec_s": timing.get("exec_s"),
            "perf": timing.get("perf"),
        }
        meta = link.phase_meta.pop(key, None)
        if meta is not None:
            queue_s, serialize_s, sent_perf = meta
            attrs["queue_s"] = round(queue_s, 6)
            attrs["serialize_s"] = round(serialize_s, 6)
            attrs["inflight_s"] = round(time.perf_counter() - sent_perf, 6)
        telemetry.event("job", **attrs)

    def _fill_window(
        self,
        link: _WorkerLink,
        peers: Sequence[_WorkerLink],
        inflight: Dict[str, Job],
        telemetry: Telemetry,
    ) -> None:
        """Top up the in-flight window, one ``job`` frame per queued
        scenario; block on the queue only when nothing is in flight.
        Only that blocking take steals from ``peers`` once the link's
        own queue is empty (see :meth:`_WorkerLink.take`), so an idle
        link takes one stolen job at a time."""
        while not link.finishing and len(inflight) < self.window:
            try:
                item = link.take(peers, block=not inflight)
            except queue.Empty:
                return
            if item is _DONE:
                link.finishing = True
                return
            key, spec, enqueued_at = item
            serialize_start = time.perf_counter()
            frame: Dict[str, Any] = {
                "type": "job",
                "key": key,
                "spec": spec.to_dict(),
                # Wall clock on purpose: the driver and worker do not
                # share a monotonic epoch, so cross-host diagnostics
                # need civil time.  Never used for elapsed math.
                "sent_at": time.time(),  # repro: allow[D-wallclock]
            }
            if telemetry.enabled:
                frame["telemetry"] = True
            # In flight from here on: a failed send is lost in-flight
            # work for the death report.
            inflight[key] = (key, spec)
            try:
                send_frame(link.sock, frame)
            except OSError as exc:
                raise _WorkerDied(str(exc)) from exc
            if telemetry.enabled:
                sent_perf = time.perf_counter()
                link.phase_meta[key] = (
                    serialize_start - enqueued_at,
                    sent_perf - serialize_start,
                    sent_perf,
                )
            link.inflight_jobs += 1

    def _await_frame(self, link: _WorkerLink) -> Dict[str, Any]:
        """One frame from the worker, with ping-based liveness checking.

        Reads go through the link's :class:`FrameReceiver
        <repro.runtime.backends.wire.FrameReceiver>`, so a timeout that
        lands mid-frame keeps the partial bytes buffered -- the follow-up
        read after the ping resumes the same frame instead of desyncing.
        """
        link.sock.settimeout(self.job_timeout)
        try:
            doc = link.reader.recv()
        except socket.timeout:
            doc = self._ping(link)
        except (WireError, OSError) as exc:
            raise _WorkerDied(str(exc)) from exc
        if doc is None:
            raise _WorkerDied("connection closed")
        return doc

    def _ping(self, link: _WorkerLink) -> Optional[Dict[str, Any]]:
        try:
            ping_start = time.perf_counter()
            send_frame(link.sock, {"type": "ping"})
            link.sock.settimeout(self.ping_grace)
            doc = link.reader.recv()
        except (socket.timeout, WireError, OSError) as exc:
            raise _WorkerDied(f"no heartbeat: {exc}") from exc
        # Only a pong reply is a clean round-trip sample; a result frame
        # that beat the pong back proves liveness but times the scenario,
        # not the wire.
        if doc is not None and doc.get("type") == "pong":
            rtt = time.perf_counter() - ping_start
            link.ping_rtts.append(rtt)
            current().event("socket.ping", worker=link.address,
                            rtt_s=round(rtt, 6))
        return doc

    def _farewell(self, link: _WorkerLink) -> None:
        try:
            send_frame(link.sock, {"type": "bye"})
        except OSError:
            pass


def _jittered(delay: float) -> float:
    """Add +/-25% jitter so retries from many drivers do not stampede."""
    return delay * random.uniform(0.75, 1.25)


def _shard(key: str, workers: int) -> int:
    """Deterministic hash-space shard of scenario ``key`` (sha256 hex)."""
    return int(key[:16], 16) % workers
