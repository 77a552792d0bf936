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
  within ``ping_grace`` declares it dead (workers answer pings from a
  dedicated reader thread even mid-execution, so a slow scenario alone
  never trips this -- tune ``job_timeout`` to the slowest expected
  scenario);
* a worker that answers pings while a job stays outstanding past
  ``job_timeout`` gets the job *resent* (a dropped frame on a live link
  starves, it does not kill); :data:`~SocketBackend.MAX_RESENDS` losses
  of the same job declare the link dead anyway.

The backend assumes failure is normal, not exceptional:

* **connect retries** -- ``_connect_all`` retries unreachable workers
  with exponential backoff + jitter (``connect_retries``/``backoff``)
  before giving up on an address;
* **reconnect** -- a background :class:`_Reconnector` keeps redialing
  addresses that were unreachable or died mid-campaign; a worker that
  comes (back) up joins the fleet mid-run and steals queued work from
  its peers (stateless workers + the versioned handshake make this safe);
* **quarantine** -- a scenario whose executor dies ``quarantine_after``
  distinct times is *suspected poison*: it is retried once in an
  isolated local subprocess, and only if that probe also crashes is it
  quarantined -- reported as a structured failure row (see
  :func:`~repro.runtime.backends.base.quarantine_row`) instead of
  cascading through requeue until the fleet is gone.  An innocent
  scenario that merely sat on repeatedly-dying workers produces its real
  row from the probe;
* **degradation** -- if the fleet empties (and, with reconnect on, stays
  empty for ``degrade_after`` seconds), the driver executes the leftovers
  locally in isolated subprocesses rather than aborting: campaigns always
  complete.  ``degrade=False`` restores the old fail-stop behavior.
  Probes and degradation share one isolated-subprocess runner;
* **fault injection** -- ``chaos=ChaosPolicy(...)`` wraps each worker
  connection (post-handshake) so all of the above can be exercised
  deterministically; see :mod:`~repro.runtime.backends.chaos`.

Scenarios owned by a dead worker are requeued onto the survivors (again
by hash), and results are deduplicated by scenario hash, so a campaign
that loses workers yields exactly one row per scenario -- byte-identical
to a serial run, because rows are pure functions of their specs.  Every
recovery action emits an obs event (``socket.retry``,
``socket.reconnect``, ``socket.resend``, ``socket.quarantine``,
``backend.degraded``) rendered by ``repro stats``.
"""

from __future__ import annotations

import itertools
import logging
import multiprocessing
import queue
import random
import socket
import threading
import time
from typing import (
    Any, Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union,
)

from ...analysis.watchdog import traced_lock
from ...obs import metrics
from ...obs.logsetup import kv
from ...obs.spans import Telemetry, current
from .base import Backend, BackendError, Job, JobResult, execute_job, quarantine_row
from .chaos import ChaosPolicy
from .wire import (
    PROTOCOL_VERSION,
    FrameReceiver,
    WireError,
    decode_result,
    parse_address,
    recv_frame,
    send_frame,
)

#: Structured driver-side log (retry/reconnect/resend/quarantine events).
_log = logging.getLogger("repro.socket")

#: Sentinel telling a driver thread its worker has no further work.
_DONE = object()

#: Ceiling on connect/reconnect backoff growth.
_MAX_BACKOFF_S = 30.0

#: Extra allowance on isolated-subprocess deadlines: a ``spawn`` child
#: pays interpreter + import startup that a TCP worker already paid.
_SPAWN_GRACE_S = 30.0

#: One isolated-runner outcome: ``(key, (ok, row))`` for a finished job,
#: ``(key, None)`` for the job its child crashed or stalled on.
_Outcome = Tuple[str, Optional[Tuple[bool, Dict[str, Any]]]]

#: One submit-loop event: ``(kind, link, payload)``.
_Event = Tuple[str, Any, Any]


class _Occupancy:
    """Pipeline-window occupancy integral for one worker link.

    Tracks how many jobs are in flight over time (driven only from the
    link's single driver thread, so no locking): ``busy_s`` is time with
    at least one job in flight, the integral divided by wall time is the
    mean window depth.  A mean window well below the configured
    ``window`` means the driver, not the worker, is the bottleneck.
    """

    __slots__ = ("started", "last", "count", "busy_s", "integral", "peak")

    def __init__(self) -> None:
        self.started = self.last = time.perf_counter()
        self.count = 0
        self.busy_s = 0.0
        self.integral = 0.0
        self.peak = 0

    def change(self, delta: int) -> None:
        now = time.perf_counter()
        elapsed = now - self.last
        if self.count > 0:
            self.busy_s += elapsed
        self.integral += self.count * elapsed
        self.last = now
        self.count += delta
        if self.count > self.peak:
            self.peak = self.count

    def summary(self) -> Dict[str, float]:
        self.change(0)  # flush the open interval
        wall = max(self.last - self.started, 1e-9)
        return {
            "wall_s": round(wall, 6),
            "busy_s": round(self.busy_s, 6),
            "utilization": round(self.busy_s / wall, 4),
            "mean_window": round(self.integral / wall, 3),
            "peak_window": self.peak,
        }


class _WorkerLink:
    """Driver-side state for one connected worker (one connection *generation*:
    a reconnect to the same address builds a fresh link)."""

    def __init__(self, address: str, sock: Any, ident: str = "") -> None:
        self.address = address
        self.sock = sock
        #: Distinct-executor identity for quarantine evidence: the same
        #: address reconnected is a *new* executor (``addr#gN``).
        self.ident = ident or address
        #: Resumable reader: heartbeat timeouts must not lose the bytes
        #: of a result frame caught mid-flight (see ``wire.FrameReceiver``).
        self.reader = FrameReceiver(sock)
        self.jobs: "queue.Queue[Any]" = queue.Queue()
        self.finishing = False
        self.completed = 0
        self.resends = 0
        #: Handshake duration (set by ``_open_link``).
        self.connect_s = 0.0
        #: Measured ping round trips, oldest first (the post-handshake
        #: calibration ping plus any heartbeat pings; GIL-atomic appends).
        self.ping_rtts: List[float] = []
        #: Telemetry only: per-key ``(queue_s, serialize_s, sent_perf)``.
        self.phase_meta: Dict[str, Tuple[float, float, float]] = {}
        #: Latest worker self-report (the wire-v6 ``metrics`` field on
        #: ``pong``/``result`` frames); read by the live view and the
        #: teardown ``socket.worker`` event.  GIL-atomic replace.
        self.worker_metrics: Optional[Dict[str, Any]] = None
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


class _Reconnector:
    """Background redialer: turns down addresses back into live links.

    Owns a per-address exponential backoff schedule.  ``mark_down`` is
    called for addresses unreachable at connect time and for links that
    die mid-campaign; each successful redial is announced on the
    backend's event queue as a ``("joined", link, None)`` event, which
    the submit loop turns into a live driver thread that steals queued
    work from its peers.  Stateless workers make rejoin safe: the fresh
    handshake re-checks the protocol version and the new link starts
    empty.
    """

    def __init__(self, backend: "SocketBackend",
                 events: "queue.Queue[_Event]") -> None:
        self._backend = backend
        self._events = events
        self._stop = threading.Event()
        # Watchdog-instrumented: guards only the backoff schedule and is
        # never held across _open_link (a blocking connect).
        self._lock = traced_lock("_Reconnector._lock")
        self._due: Dict[str, float] = {}
        self._delay: Dict[str, float] = {}
        self._thread = threading.Thread(
            target=self._run, name="socket-reconnect", daemon=True,
        )

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        """Stop redialing and join the thread (for at most one connect
        deadline plus a second).

        A redial that lands while stopping has either posted its link on
        the event queue by the time this returns, so a drain after
        ``stop()`` closes it, or sees the stop flag and closes the link
        itself -- as does a handshake still running when the join gives
        up.
        """
        self._stop.set()
        if self._thread.ident is not None:
            self._thread.join(timeout=self._backend.connect_timeout + 1.0)

    def mark_down(self, address: str) -> None:
        """Schedule ``address`` for redialing (idempotent while down)."""
        with self._lock:
            if address in self._due:
                return
            delay = self._backend.backoff
            self._delay[address] = delay
            self._due[address] = time.monotonic() + _jittered(delay)

    def _run(self) -> None:
        while not self._stop.wait(0.05):
            now = time.monotonic()
            with self._lock:
                ready = [a for a, due in self._due.items() if due <= now]
            for address in ready:
                try:
                    link = self._backend._open_link(address)
                except (BackendError, OSError) as exc:
                    with self._lock:
                        delay = min(self._delay[address] * 2, _MAX_BACKOFF_S)
                        self._delay[address] = delay
                        self._due[address] = time.monotonic() + _jittered(delay)
                    _log.debug(kv("redial-failed", worker=address,
                                  retry_in_s=round(delay, 3), error=str(exc)))
                    continue
                if self._stop.is_set():
                    link.close()
                    return
                with self._lock:
                    self._due.pop(address, None)
                    self._delay.pop(address, None)
                _log.info(kv("reconnected", worker=address, ident=link.ident))
                current().event("socket.reconnect", worker=address,
                                ident=link.ident)
                self._events.put(("joined", link, None))


class _Submission:
    """The state of one :meth:`SocketBackend.submit` call, and its handlers.

    Driver threads, the reconnector and poison probes post ``(kind,
    link, payload)`` events; the submit loop hands each to the handler
    of its kind -- :meth:`on_result`, :meth:`on_dead`, :meth:`on_joined`,
    :meth:`on_probed` -- and runs :meth:`degrade` between events.  Each
    handler returns the results it settled.  Every field is written only
    on the submit thread: the other threads just post events, so no
    handler needs a lock.  Driver threads read two things besides their
    own link: ``live``, to pick a peer to steal from, and the peers' job
    queues, which are thread-safe.
    """

    def __init__(self, backend: "SocketBackend", pending: List[Job],
                 links: List[_WorkerLink], unreachable: List[str]) -> None:
        self.backend = backend
        self.telemetry = current()
        self.events: "queue.Queue[_Event]" = queue.Queue()
        self.jobs: Dict[str, Job] = {key: (key, spec) for key, spec in pending}
        self.remaining: Set[str] = set(self.jobs)
        #: Scenario hash -> distinct executor idents that died with it in
        #: flight (the quarantine evidence).
        self.deaths: Dict[str, Set[str]] = {}
        #: Keys currently being probed in an isolated subprocess.
        self.probing: Set[str] = set()
        #: Salvaged jobs with no live link to run them (await rejoin/degrade).
        self.unassigned: Dict[str, Job] = {}
        self.live: List[_WorkerLink] = list(links)
        #: Every link of this submit, including dead ones (the live view
        #: reads it from the reporter thread; appends are GIL-atomic).
        self.all_links: List[_WorkerLink] = list(links)
        self.degrade_deadline: Optional[float] = None
        self.threads: List[threading.Thread] = []
        self.reconnector: Optional[_Reconnector] = None
        self.stats: Dict[str, Any] = {
            "workers": len(links),
            "unreachable": unreachable,
            "lost": 0,
            "requeued": 0,
            "duplicates": 0,
            "reconnects": 0,
            "resends": 0,
            "probed": 0,
            "quarantined": 0,
            "degraded": False,
            "per_worker": {},
            "ping_rtt_s": [],
            "chaos": {},
        }
        for key, spec in pending:
            links[_shard(key, len(links))].enqueue(key, spec)

    def spawn(self, target: Callable[..., None], args: Tuple[Any, ...],
              name: str) -> None:
        """Start a daemon thread that :meth:`close` joins."""
        thread = threading.Thread(target=target, args=args, name=name,
                                  daemon=True)
        thread.start()
        self.threads.append(thread)

    def start_driver(self, link: _WorkerLink) -> None:
        # The driver reads ``live`` to pick a peer to steal from: a
        # GIL-atomic read of a list only this thread rebinds or appends to.
        self.spawn(self.backend._drive, (link, self.events, lambda: self.live),
                   f"socket-driver:{link.ident}")

    def start_probe(self, job: Job) -> None:
        """Re-run a poison suspect alone in an isolated subprocess; the
        probe thread only posts the outcome (see :meth:`on_probed`)."""
        key = job[0]
        self.probing.add(key)
        self.stats["probed"] += 1
        _log.warning(kv("poison-suspect", key=key[:12],
                        deaths=len(self.deaths.get(key, ()))))
        self.telemetry.event("socket.probe", key=key[:12],
                             deaths=len(self.deaths.get(key, ())))
        self.spawn(self.backend._probe, (job, self.events),
                   f"socket-probe:{key[:12]}")

    def next_event(self) -> Optional[_Event]:
        """The next event; ``None`` when a pending degrade deadline
        passes first."""
        timeout = None
        if (self.degrade_deadline is not None and not self.live
                and self.remaining - self.probing):
            timeout = max(0.05, self.degrade_deadline - time.monotonic())
        try:
            return self.events.get(timeout=timeout)
        except queue.Empty:
            return None

    # -- event handlers ------------------------------------------------

    def on_result(self, link: _WorkerLink,
                  payload: JobResult) -> List[JobResult]:
        key = payload[0]
        if key not in self.remaining or key in self.probing:
            self.stats["duplicates"] += 1
            return []
        self.remaining.discard(key)
        link.completed += 1
        return [payload]

    def on_dead(self, link: _WorkerLink,
                payload: Tuple[List[Job], List[Job]]) -> List[JobResult]:
        inflight_jobs, queued_jobs = payload
        self.live = [peer for peer in self.live if peer is not link]
        link.close()
        self.stats["lost"] += 1
        # In-flight at death is the poison evidence; merely queued jobs
        # are innocent bystanders.
        for key, _ in inflight_jobs:
            if key in self.remaining:
                self.deaths.setdefault(key, set()).add(link.ident)
        # The driver thread drained its queue before posting this event,
        # but if another worker died first, the submit loop may have
        # requeued jobs onto the link in that window -- jobs its own
        # driver will never read (a peer may steal some, not all).
        # Requeue puts happen only on the submit thread, so draining
        # here, after removing the link from ``live``, is final.
        salvaged = inflight_jobs + queued_jobs + link.drain_jobs()
        self.telemetry.event("socket.worker_dead", worker=link.address,
                             ident=link.ident, salvaged=len(salvaged))
        if self.reconnector is not None:
            self.reconnector.mark_down(link.address)
        requeue: Dict[str, Job] = {}
        for job in salvaged:
            key = job[0]
            if key not in self.remaining or key in self.probing or key in requeue:
                continue
            if len(self.deaths.get(key, ())) >= self.backend.quarantine_after:
                self.start_probe(job)
            else:
                requeue[key] = job
        if self.live:
            for key, spec in requeue.values():
                self.live[_shard(key, len(self.live))].enqueue(key, spec)
            if requeue:
                self.telemetry.event("socket.requeue", count=len(requeue),
                                     survivors=len(self.live))
        else:
            self.unassigned.update(requeue)
        self.stats["requeued"] += len(requeue)
        metrics.inc("socket.requeues", len(requeue))
        return []

    def on_joined(self, link: _WorkerLink, payload: None) -> List[JobResult]:
        self.live.append(link)
        self.all_links.append(link)
        self.stats["reconnects"] += 1
        metrics.inc("socket.reconnects")
        self.degrade_deadline = None
        self.start_driver(link)
        # Work stranded while no link was live goes to the newcomer.  Next
        # to live peers it starts empty and steals from their queues.
        for key, job in self.unassigned.items():
            if key in self.remaining and key not in self.probing:
                link.enqueue(*job)
        self.unassigned.clear()
        return []

    def on_probed(self, link: None, payload: Tuple[Job, Any]) -> List[JobResult]:
        job, outcome = payload
        key = job[0]
        self.probing.discard(key)
        if key not in self.remaining:
            self.stats["duplicates"] += 1
            return []
        result = self.settle(key, outcome)
        # A suspect already carries quarantine_after deaths, so settle()
        # convicts a crashed probe instead of asking for a retry.
        assert result is not None
        self.remaining.discard(key)
        return [result]

    # -- isolated execution (probe outcomes + degradation) -------------

    def settle(self, key: str, outcome: Optional[Tuple[bool, Dict[str, Any]]]
               ) -> Optional[JobResult]:
        """The result an isolated-runner outcome settles, if any.

        A finished job is its row.  A crash charges the job with one more
        executor death; at ``quarantine_after`` deaths the job is
        quarantined (its structured failure row is returned), below it
        ``None`` asks the caller to retry it in a fresh child.
        """
        if outcome is not None:
            return key, outcome[0], outcome[1]
        executors = self.deaths.setdefault(key, set())
        executors.add(f"isolated#{len(executors) + 1}")
        if len(executors) < self.backend.quarantine_after:
            return None
        self.stats["quarantined"] += 1
        _log.error(kv("quarantined", key=key[:12], executors=len(executors)))
        self.telemetry.event("socket.quarantine", key=key[:12],
                             executors=sorted(executors))
        return key, False, quarantine_row(key, executors)

    def degrade(self) -> Iterator[JobResult]:
        """Finish stranded work locally once the fleet is gone for good.

        Runs only with no live link and fleet work left, and (with
        reconnect on) only after ``degrade_after`` seconds without a
        rejoin.  The leftovers run in isolated subprocesses; each crash
        is settled by :meth:`settle`, so even a never-dispatched poison
        job cannot take the driver down with it.
        """
        if self.live:
            return
        fleet_work = self.remaining - self.probing
        if not fleet_work:
            return
        backend = self.backend
        if backend.reconnect:
            if self.degrade_deadline is None:
                self.degrade_deadline = time.monotonic() + backend.degrade_after
            if time.monotonic() < self.degrade_deadline:
                return
        if not backend.degrade:
            raise BackendError(
                f"all socket worker(s) died with {len(fleet_work)} "
                f"scenario(s) unfinished"
            )
        self.stats["degraded"] = True
        self.unassigned.clear()
        self.degrade_deadline = None
        _log.warning(kv("degraded", remaining=len(fleet_work)))
        self.telemetry.event("backend.degraded", remaining=len(fleet_work),
                             reason="no live workers")
        pending = [self.jobs[key] for key in sorted(fleet_work)]
        while pending:
            settled = 0
            for key, outcome in backend._run_isolated(pending):
                result = self.settle(key, outcome)
                if result is None:
                    break  # the runner stops after a crash: retry from it
                settled += 1
                if key in self.remaining:
                    self.remaining.discard(key)
                    yield result
            pending = pending[settled:]

    # -- teardown --------------------------------------------------------

    def close(self) -> None:
        """Stop the reconnector, dismiss the drivers, join every thread
        this submit started, close every link and fold the per-link
        counters into :attr:`stats`."""
        if self.reconnector is not None:
            self.reconnector.stop()
        for link in self.live:
            link.jobs.put(_DONE)
        for thread in self.threads:
            thread.join(timeout=self.backend.ping_grace)
        # A redial may have landed after the loop finished; those links
        # never got a driver thread -- just close them.
        while True:
            try:
                kind, link, _ = self.events.get_nowait()
            except queue.Empty:
                break
            if kind == "joined":
                self.all_links.append(link)
        per_worker: Dict[str, int] = {}
        chaos_counts: Dict[str, int] = {}
        for link in self.all_links:
            link.close()
            per_worker[link.address] = (
                per_worker.get(link.address, 0) + link.completed
            )
            self.stats["resends"] += link.resends
            injected = getattr(link.sock, "counts", None) or {}
            for action, count in injected.items():
                chaos_counts[action] = chaos_counts.get(action, 0) + count
        self.stats["per_worker"] = per_worker
        self.stats["chaos"] = chaos_counts
        self.stats["ping_rtt_s"] = [
            rtt for link in self.all_links for rtt in link.ping_rtts
        ]


class SocketBackend(Backend):
    """Execute scenarios on remote ``python -m repro worker`` processes.

    Args:
        addresses: worker endpoints, as ``"host:port"`` strings or
            ``(host, port)`` pairs.
        job_timeout: seconds a job may be outstanding before the worker
            is pinged (and, if alive, the job resent).
        ping_grace: seconds after a ping before the worker is declared
            dead.
        connect_timeout: handshake/connect deadline per worker.
        window: jobs kept in flight per worker (pipelining hides the
            request/response round trip).
        require_all: with ``True``, fail fast if any address is still
            unreachable after the connect retries; the default tolerates
            unreachable workers as long as at least one connects (they
            are listed in :meth:`summary` and handed to the reconnector).
        connect_retries: extra connect rounds for unreachable addresses
            (exponential backoff from ``backoff``, jittered).  Retries
            keep going only while they matter: until at least one worker
            is connected, or until all are with ``require_all``.
        backoff: base backoff in seconds for connect retries and the
            background reconnector (doubles per failure, capped).
        reconnect: keep redialing down addresses in the background so
            dead or late-starting workers join mid-campaign.
        quarantine_after: distinct executor deaths that turn a scenario
            into a poison suspect (then confirmed by one isolated local
            probe before quarantining).  Minimum 1.
        degrade: with no live links (and reconnect exhausted/disabled),
            finish the leftovers locally in isolated subprocesses instead
            of raising; ``False`` restores fail-stop.
        degrade_after: seconds to wait for a reconnect before degrading
            (only meaningful with ``reconnect=True``).
        chaos: optional :class:`~repro.runtime.backends.chaos.ChaosPolicy`
            injecting faults into driver-to-worker frames (post-handshake).
    """

    name = "socket"
    parallel = True
    distributed = True

    #: Times one job may be resent to a live-but-silent worker before
    #: the link is declared dead anyway.
    MAX_RESENDS = 3

    def __init__(
        self,
        addresses: Sequence[Union[str, Tuple[str, int]]],
        job_timeout: float = 300.0,
        ping_grace: float = 10.0,
        connect_timeout: float = 10.0,
        window: int = 2,
        require_all: bool = False,
        connect_retries: int = 2,
        backoff: float = 0.5,
        reconnect: bool = True,
        quarantine_after: int = 2,
        degrade: bool = True,
        degrade_after: float = 5.0,
        chaos: Optional[ChaosPolicy] = None,
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
        if backoff <= 0:
            raise ValueError(f"backoff must be positive, got {backoff}")
        if quarantine_after < 1:
            raise ValueError(
                f"quarantine_after must be >= 1, got {quarantine_after}"
            )
        self.job_timeout = job_timeout
        self.ping_grace = ping_grace
        self.connect_timeout = connect_timeout
        self.window = window
        self.require_all = require_all
        self.connect_retries = connect_retries
        self.backoff = backoff
        self.reconnect = reconnect
        self.quarantine_after = quarantine_after
        self.degrade = degrade
        self.degrade_after = degrade_after
        self.chaos = chaos
        self.last_stats: Dict[str, Any] = {}
        self._generation = itertools.count(1)
        #: Every link of the current/last submit (live view reads this;
        #: rebound to a fresh list per submit, so a stale reader sees a
        #: consistent snapshot of the previous campaign at worst).
        self._all_links: List[_WorkerLink] = []

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
        """Connect + handshake + (optionally) chaos-wrap one worker into a
        ready :class:`_WorkerLink`.  Thread-safe; used by both the initial
        ``_connect_all`` and the background reconnector."""
        telemetry = current()
        connect_start = time.perf_counter()
        sock, rtt = self._connect(address)
        generation = next(self._generation)
        metrics.set_gauge("socket.reconnect_generation", generation)
        ident = f"{address}#g{generation}"
        wrapped: Any = sock
        if self.chaos is not None:
            # Wrapped only after the handshake: chaos may destroy sessions,
            # never make the version check flaky (mirrors the worker side).
            wrapped = self.chaos.wrap(sock, label=f"driver->{ident}")
        link = _WorkerLink(address, wrapped, ident=ident)
        link.connect_s = time.perf_counter() - connect_start
        if rtt is not None:
            link.ping_rtts.append(rtt)
        telemetry.event(
            "socket.connect", worker=address, ident=ident,
            dur_s=round(link.connect_s, 6),
            rtt_s=round(rtt, 6) if rtt is not None else None,
        )
        return link

    def _connect_all(self) -> Tuple[List[_WorkerLink], List[str]]:
        """Dial every address, retrying with exponential backoff + jitter.

        Retries are spent only while they can change the outcome: while
        zero workers are connected (a campaign cannot start), or while
        any worker is missing under ``require_all``.  Addresses still
        down when a quorum exists are left to the background reconnector.
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
                min(self.backoff * (2 ** (attempt - 1)), _MAX_BACKOFF_S)
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

        Failure handling, in escalation order: a dead link's jobs are
        requeued onto survivors; a down address is redialed in the
        background and rejoins mid-run; a scenario with
        ``quarantine_after`` distinct executor deaths is probed in an
        isolated subprocess and quarantined if the probe also crashes;
        an empty fleet (past the reconnect grace) degrades to isolated
        local execution.  The campaign always yields exactly one row per
        key -- possibly a structured quarantine failure row.  The state
        and its event handlers live in :class:`_Submission`.
        """
        if not pending:
            return
        links, unreachable = self._connect_all()
        run = _Submission(self, pending, links, unreachable)
        self.last_stats = run.stats
        self._all_links = run.all_links
        handlers = {
            "result": run.on_result,
            "dead": run.on_dead,
            "joined": run.on_joined,
            "probed": run.on_probed,
        }
        try:
            for link in links:
                run.start_driver(link)
            if self.reconnect:
                run.reconnector = _Reconnector(self, run.events)
                for address in unreachable:
                    run.reconnector.mark_down(address)
                run.reconnector.start()
            while run.remaining:
                yield from run.degrade()
                event = run.next_event() if run.remaining else None
                if event is not None:
                    kind, link, payload = event
                    yield from handlers[kind](link, payload)
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
        if stats["reconnects"]:
            parts.append(f"{stats['reconnects']} reconnect(s)")
        if stats["requeued"]:
            parts.append(f"{stats['requeued']} scenario(s) requeued")
        if stats["resends"]:
            parts.append(f"{stats['resends']} job resend(s)")
        if stats["quarantined"]:
            parts.append(f"{stats['quarantined']} scenario(s) quarantined")
        if stats["degraded"]:
            parts.append("degraded to local isolated execution")
        if stats["duplicates"]:
            parts.append(f"{stats['duplicates']} duplicate result(s) dropped")
        if stats.get("chaos"):
            injected = ",".join(
                f"{action}={count}"
                for action, count in sorted(stats["chaos"].items())
            )
            parts.append(f"chaos injected {injected}")
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
        """Per-link liveness rows for the live progress view.

        Combines driver-side state (in-flight jobs, pipeline window,
        last ping RTT, completed count) with the worker's own wire-v6
        self-report (queue depth, jobs done, exec rate).  Read from the
        reporter thread while driver threads mutate the links: every
        field is a GIL-atomic read of an int/float/reference, so rows
        are slightly stale but never torn.
        """
        rows: List[Dict[str, Any]] = []
        for link in list(self._all_links):
            report = link.worker_metrics or {}
            rtts = link.ping_rtts
            done = report.get("done")
            up_s = report.get("up_s") or 0.0
            rows.append({
                "worker": link.ident,
                "inflight": link.inflight_jobs,
                "window": self.window,
                "rtt_ms": round(rtts[-1] * 1e3, 2) if rtts else None,
                "queue": report.get("queue"),
                "done": done,
                "exec/s": (round(float(done) / up_s, 1)
                           if done is not None and up_s > 0 else None),
                "completed": link.completed,
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
        occupancy = _Occupancy() if telemetry.enabled else None
        #: scenario key -> mutable ``[job, sent_at_perf, resend_count]``.
        inflight: Dict[str, List[Any]] = {}
        try:
            while True:
                self._fill_window(link, peers(), inflight, telemetry,
                                  occupancy)
                if link.finishing and not inflight:
                    self._farewell(link)
                    return
                doc = self._await_frame(link, inflight)
                snap = doc.get("metrics")
                if isinstance(snap, dict):
                    link.worker_metrics = snap
                if doc["type"] != "result":
                    continue  # pongs and unknown types just prove liveness
                # A malformed result is a WireError -> dead link ->
                # requeue, decided before any in-flight bookkeeping.
                result = decode_result(doc)
                key = result["key"]
                if inflight.pop(key, None) is None:
                    # Duplicate answer to a job we resent and have since
                    # settled; the submit loop dedups keys anyway.
                    continue
                link.inflight_jobs -= 1
                metrics.inc_gauge("socket.inflight", -1)
                if occupancy is not None:
                    occupancy.change(-1)
                    self._record_job(telemetry, link, result)
                events.put(("result", link, (key, result["ok"], result["row"])))
        except Exception:  # noqa: BLE001 - any escape means this link is
            # done; anything short of reporting it dead would leave its
            # in-flight scenarios unresolved and submit() blocked forever.
            inflight_jobs = [entry[0] for entry in inflight.values()]
            events.put(("dead", link, (inflight_jobs, link.drain_jobs())))
        finally:
            if link.inflight_jobs:
                # Death path: give the in-flight jobs back to the gauge
                # so the fleet-wide level stays exact across lost links.
                metrics.inc_gauge("socket.inflight", -link.inflight_jobs)
                link.inflight_jobs = 0
            if occupancy is not None:
                report = link.worker_metrics or {}
                telemetry.event("socket.worker", worker=link.address,
                                connect_s=round(link.connect_s, 6),
                                window=self.window,
                                w_queue=report.get("queue"),
                                w_done=report.get("done"),
                                w_exec_s=report.get("exec_s"),
                                w_up_s=report.get("up_s"),
                                **occupancy.summary())

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

    def _job_frame(self, job: Job, want_telemetry: bool) -> Dict[str, Any]:
        """Build one ``job`` frame (shared by first send and resends, so
        a resent job is byte-for-byte the same work order)."""
        frame: Dict[str, Any] = {
            "type": "job",
            "key": job[0],
            "spec": job[1].to_dict(),
            # Wall clock on purpose: the driver and worker do not share
            # a monotonic epoch, so cross-host diagnostics need civil
            # time.  Never used for elapsed math on either side.
            "sent_at": time.time(),  # repro: allow[D-wallclock]
        }
        if want_telemetry:
            frame["telemetry"] = True
        return frame

    def _fill_window(
        self,
        link: _WorkerLink,
        peers: Sequence[_WorkerLink],
        inflight: Dict[str, List[Any]],
        telemetry: Telemetry,
        occupancy: Optional[_Occupancy],
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
            job: Job = (key, spec)
            if occupancy is not None:
                occupancy.change(+1)
            serialize_start = time.perf_counter()
            frame = self._job_frame(job, telemetry.enabled)
            try:
                send_frame(link.sock, frame)
            except OSError as exc:
                # Count it as lost in-flight work for the death report.
                inflight[key] = [job, time.perf_counter(), 0]
                raise _WorkerDied(str(exc)) from exc
            sent_perf = time.perf_counter()
            if telemetry.enabled:
                link.phase_meta[key] = (
                    serialize_start - enqueued_at,
                    sent_perf - serialize_start,
                    sent_perf,
                )
            inflight[key] = [job, sent_perf, 0]
            link.inflight_jobs += 1
            metrics.inc_gauge("socket.inflight", 1)

    def _await_frame(self, link: _WorkerLink,
                     inflight: Dict[str, List[Any]]) -> Dict[str, Any]:
        """One frame from the worker, with ping-based liveness checking.

        Reads go through the link's :class:`FrameReceiver
        <repro.runtime.backends.wire.FrameReceiver>`, so a timeout that
        lands mid-frame keeps the partial bytes buffered -- the follow-up
        read after the ping resumes the same frame instead of desyncing.
        A worker that answers the ping but has starved a job past
        ``job_timeout`` gets the job resent: connection-level liveness
        cannot see a dropped frame, only per-job accounting can.
        """
        link.sock.settimeout(self.job_timeout)
        try:
            doc = link.reader.recv()
        except socket.timeout:
            doc = self._ping(link)
            if doc is not None:
                self._resend_stale(link, inflight)
        except (WireError, OSError) as exc:
            raise _WorkerDied(str(exc)) from exc
        if doc is None:
            raise _WorkerDied("connection closed")
        return doc

    def _resend_stale(self, link: _WorkerLink,
                      inflight: Dict[str, List[Any]]) -> None:
        """Resend jobs outstanding past ``job_timeout`` on a live link.

        The worker just proved liveness, so a stale job means its ``job``
        frame (or its ``result`` answer) was lost in transit -- resend
        it; a duplicate result is dropped here by key and again in the
        submit loop.  A job lost :data:`MAX_RESENDS` times gives up on
        the link instead.
        """
        telemetry = current()
        now = time.perf_counter()
        for key, entry in inflight.items():
            job, sent_at, resends = entry
            if now - sent_at < self.job_timeout:
                continue
            if resends >= self.MAX_RESENDS:
                raise _WorkerDied(
                    f"job {key[:12]} still outstanding after "
                    f"{resends} resend(s)"
                )
            frame = self._job_frame(job, telemetry.enabled)
            try:
                send_frame(link.sock, frame)
            except OSError as exc:
                raise _WorkerDied(str(exc)) from exc
            entry[1] = time.perf_counter()
            entry[2] = resends + 1
            link.resends += 1
            _log.warning(kv("resend", worker=link.address, key=key[:12],
                            attempt=resends + 1))
            telemetry.event("socket.resend", worker=link.address,
                            key=key[:12], attempt=resends + 1)

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

    # -- isolated local execution (probe + degradation) ----------------

    def _probe(self, job: Job, events: "queue.Queue[_Event]") -> None:
        """Probe-thread body: run one poison suspect isolated and post
        its outcome for the submit thread to settle."""
        [(_, outcome)] = self._run_isolated([job])
        events.put(("probed", None, (job, outcome)))

    def _run_isolated(self, jobs: List[Job]) -> Iterator[_Outcome]:
        """Execute ``jobs`` in order in one fresh ``spawn`` subprocess.

        Yields ``(key, (ok, row))`` for each job the child finishes.  If
        the child dies, or makes no progress for ``job_timeout`` plus a
        spawn grace, it yields ``(key, None)`` for the first job it did
        not finish -- the culprit -- and stops.  Isolation is the point:
        a poison job kills only the child, and an innocent job that sat
        on repeatedly-dying workers produces its real row here.  The
        runner only reports; callers decide what a crash means.

        The channel is a ``Pipe``, not a ``Queue``, deliberately: queue
        puts go through a feeder thread whose buffered items die with an
        ``os._exit``, so results the child *did* produce before hitting a
        poison job would vanish and the culprit would drift onto an
        innocent neighbour.  Pipe sends are synchronous writes -- every
        ``start``/``done`` marker received is exact.
        """
        ctx = multiprocessing.get_context("spawn")
        receiver, sender = ctx.Pipe(duplex=False)
        proc = ctx.Process(
            target=_isolated_executor, args=(sender, jobs), daemon=True,
        )
        proc.start()
        sender.close()  # child holds the only writer: EOF means it died
        stall_guard = self.job_timeout + _SPAWN_GRACE_S
        last_progress = time.monotonic()
        done = 0
        try:
            while done < len(jobs):
                if receiver.poll(0.25):
                    try:
                        message = receiver.recv()
                    except EOFError:
                        break
                    last_progress = time.monotonic()
                    if message[0] == "done":
                        _, index, key, ok, row = message
                        done = index + 1
                        yield key, (ok, row)
                    continue  # a "start" marker only proves progress
                if not proc.is_alive():
                    break
                if time.monotonic() - last_progress >= stall_guard:
                    proc.terminate()
                    break
            if done < len(jobs):
                yield jobs[done][0], None
        finally:
            receiver.close()
            proc.join(timeout=5.0)


def _isolated_executor(conn: Any, jobs: List[Job]) -> None:
    """Child entry point for probe/degradation subprocesses.

    Executes ``jobs`` serially through the same :func:`execute_job` the
    fleet uses (rows stay byte-identical), announcing each job before
    touching it and streaming each outcome back over the pipe.  The
    ``start`` marker is what lets the parent blame the exact job a crash
    landed on.  Module-level so a ``spawn`` context can pickle it.
    """
    for index, job in enumerate(jobs):
        conn.send(("start", index, job[0]))
        key, ok, row = execute_job(job)
        conn.send(("done", index, key, ok, row))
    conn.close()


def _jittered(delay: float) -> float:
    """Add +/-25% jitter so retries from many drivers do not stampede."""
    return delay * random.uniform(0.75, 1.25)


def _shard(key: str, workers: int) -> int:
    """Deterministic hash-space shard of scenario ``key`` (sha256 hex)."""
    return int(key[:16], 16) % workers
