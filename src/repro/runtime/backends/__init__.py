"""Pluggable campaign execution backends.

One :class:`~repro.runtime.backends.base.Backend` contract, three
implementations:

* :class:`SerialBackend` -- in-process reference semantics;
* :class:`PoolBackend` -- the classic ``multiprocessing`` pool (one
  machine, many cores);
* :class:`SocketBackend` -- TCP workers started with ``python -m repro
  worker --serve HOST:PORT`` (many machines), with hash-space sharding
  and work stealing, heartbeat liveness, automatic requeue from dead workers, reconnect
  with backoff, poison-job quarantine, and graceful degradation to
  local execution (see :mod:`~repro.runtime.backends.socketbackend`);
  :class:`ChaosPolicy` (:mod:`~repro.runtime.backends.chaos`) injects
  deterministic transport faults to exercise all of the above.

:class:`~repro.runtime.runner.CampaignRunner` orchestrates any of them;
because every row is a pure function of its scenario's content hash, all
three produce byte-identical campaigns.  :func:`make_backend` is the one
factory that builds and validates a backend from a name and settings
(the CLI flags and ``Experiment.run(backend="pool", workers=N)`` both go
through it).
"""

from __future__ import annotations

from typing import Optional, Sequence

from .base import Backend, BackendError, Job, JobResult, execute_job, quarantine_row
from .chaos import ChaosPolicy, ChaosSocket
from .pool import PoolBackend
from .serial import SerialBackend
from .socketbackend import SocketBackend
from .wire import PROTOCOL_VERSION, WireError, parse_address
from .worker import WorkerServer

#: CLI-facing backend names (``auto`` resolves on worker count).
BACKEND_NAMES = ("auto", "serial", "pool", "socket")


def make_backend(
    name: Optional[str] = None,
    *,
    workers: int = 1,
    connect: Sequence[str] = (),
    job_timeout: float = 300.0,
    require_all: bool = False,
    connect_retries: int = 2,
    backoff: float = 0.5,
) -> Backend:
    """Build a backend by name; the caller closes it (``with`` works).

    ``None``/``"auto"`` picks :class:`SerialBackend` for ``workers == 1``
    (:class:`SocketBackend` if ``connect`` is non-empty) and a
    :class:`PoolBackend` of ``workers`` processes otherwise.  An explicit
    ``"pool"`` uses at least 2 processes (a 1-process pool is just a
    slower serial).  ``"socket"`` requires at least one ``HOST:PORT`` in
    ``connect``; ``job_timeout``, ``require_all``, ``connect_retries``
    and ``backoff`` are socket-only knobs (see :class:`SocketBackend`).

    Raises:
        ValueError: ``workers < 1``, an unknown name, ``connect`` with a
            local backend, or ``"socket"`` without ``connect``.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if name is None or name == "auto":
        name = "serial" if workers == 1 and not connect else (
            "socket" if connect else "pool"
        )
    if name in ("serial", "pool") and connect:
        # A typo'd backend name must not silently run the campaign on
        # the local machine while the connected fleet sits idle.
        raise ValueError(
            f"connect=[...] (--connect on the CLI) only applies to the "
            f"socket backend, not {name!r}"
        )
    if name == "serial":
        return SerialBackend()
    if name == "pool":
        return PoolBackend(workers=max(workers, 2))
    if name == "socket":
        if not connect:
            raise ValueError(
                "socket backend needs worker addresses: pass "
                "connect=['HOST:PORT', ...] or a SocketBackend(['HOST:PORT', "
                "...]) instance (--connect HOST:PORT[,HOST:PORT...] on the CLI)"
            )
        return SocketBackend(
            list(connect), job_timeout=job_timeout, require_all=require_all,
            connect_retries=connect_retries, backoff=backoff,
        )
    raise ValueError(
        f"unknown backend {name!r} (known: {', '.join(BACKEND_NAMES)})"
    )


__all__ = [
    "BACKEND_NAMES",
    "Backend",
    "BackendError",
    "ChaosPolicy",
    "ChaosSocket",
    "Job",
    "JobResult",
    "PROTOCOL_VERSION",
    "PoolBackend",
    "SerialBackend",
    "SocketBackend",
    "WireError",
    "WorkerServer",
    "execute_job",
    "make_backend",
    "parse_address",
    "quarantine_row",
]
