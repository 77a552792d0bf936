"""Multiprocessing backend: one machine, many cores.

Chunked ``imap_unordered`` scheduling over a process pool.  Scheduling
order is irrelevant because rows are keyed by content hash and
reassembled by the runner.
"""

from __future__ import annotations

import multiprocessing
import time
from typing import Iterator, List

from ...obs.spans import current
from .base import Backend, Job, JobResult, execute_job, timed_execute_job


class PoolBackend(Backend):
    """Execute jobs on a ``multiprocessing`` worker pool.

    Args:
        workers: pool size (>= 1; a 1-process pool is valid but
            :class:`~repro.runtime.backends.serial.SerialBackend` is the
            better choice there).

    Each :meth:`submit` splits its jobs evenly over ``4 * workers``
    chunks (at least one job each) and starts its pool with ``fork``,
    which keeps worker startup cheap on Linux, falling back to ``spawn``
    where ``fork`` is unavailable.
    """

    name = "pool"
    parallel = True
    distributed = False

    def __init__(self, workers: int = 2) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers

    def submit(self, pending: List[Job]) -> Iterator[JobResult]:
        """Yield pool results as they complete (unordered).

        With telemetry active, jobs run through the (picklable) timed
        path: each child measures its own execute time and cache stats,
        the sidecar travels back in the result tuple, and the driver
        records it -- forked children cannot write to the parent's sink
        (its pid guard drops their records), so the result channel is
        the only trustworthy route for worker-side timings.  The driver
        also measures per-result turnaround (time since the previous
        result) to expose pool scheduling gaps.
        """
        if not pending:
            return
        chunk = max(1, len(pending) // (4 * self.workers))
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:
            ctx = multiprocessing.get_context("spawn")
        telemetry = current()
        with ctx.Pool(processes=self.workers) as pool:
            if not telemetry.enabled:
                yield from pool.imap_unordered(
                    execute_job, pending, chunksize=chunk
                )
                return
            with telemetry.span("pool.dispatch", jobs=len(pending),
                                workers=self.workers, chunk=chunk):
                last = time.perf_counter()
                for key, ok, row, timing in pool.imap_unordered(
                        timed_execute_job, pending, chunksize=chunk):
                    now = time.perf_counter()
                    telemetry.event("job", key=key[:12], backend=self.name,
                                    ok=ok, gap_s=round(now - last, 6),
                                    **timing)
                    last = now
                    yield key, ok, row

    def summary(self) -> str:
        return f"pool: {self.workers} local worker process(es)"
